package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestWorkerReusedAfterPanic(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	err := e.RunAll()
	if err == nil || !strings.Contains(err.Error(), `process "bad" panicked: boom`) {
		t.Fatalf("Err = %v, want the panic of process \"bad\"", err)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after the panic, want 0", e.LiveProcs())
	}
	if len(e.pool.idle) != 1 {
		t.Fatalf("%d idle workers after the panic, want 1", len(e.pool.idle))
	}
	w := e.pool.idle[0]

	e.err = nil // the error is sticky; clear it to drive the engine on
	var at float64
	e.Spawn("good", func(p *Proc) {
		p.Sleep(2)
		at = p.Now()
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != 3 {
		t.Fatalf("next process finished at %v, want 3", at)
	}
	if len(e.pool.idle) != 1 || e.pool.idle[0] != w {
		t.Fatal("the next process did not reuse the panicked process's worker")
	}
}

func TestRestartLiveProcPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("parked", func(p *Proc) { p.Suspend() })
	mustPanic := func(when string) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Fatalf("RestartAt on a %s process did not panic", when)
			}
		}()
		e.RestartAt(e.Now(), p)
	}
	mustPanic("not yet started")
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	mustPanic("suspended")
}

func TestRestartAtRerunsBodyFromTop(t *testing.T) {
	e := NewEngine()
	var log []string
	starts := 0
	p := e.Spawn("step", func(p *Proc) {
		starts++
		log = append(log, "start")
		p.Sleep(1)
		log = append(log, "end")
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !p.Done() || e.Now() != 1 {
		t.Fatalf("first run: done=%v now=%v", p.Done(), e.Now())
	}

	// The restart takes the queue slot of the call: after an event
	// scheduled before it for the same instant, before one scheduled
	// after it.
	e.At(5, func() { log = append(log, "before") })
	e.RestartAt(5, p)
	e.At(5, func() { log = append(log, "after") })
	if p.Done() {
		t.Fatal("restarted process still reports done")
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := "start end before start after end"
	if got := strings.Join(log, " "); got != want || starts != 2 {
		t.Fatalf("log %q (starts %d), want %q (starts 2)", got, starts, want)
	}
	if !p.Done() || e.Now() != 6 {
		t.Fatalf("second run: done=%v now=%v, want done at 6", p.Done(), e.Now())
	}
}

func TestRestartPastTimeClampsToNow(t *testing.T) {
	e := NewEngine()
	var at []float64
	p := e.Spawn("step", func(p *Proc) { at = append(at, p.Now()) })
	e.Run(4)
	e.RestartAt(1, p)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 0 || at[1] != 4 {
		t.Fatalf("body ran at %v, want [0 4]", at)
	}
}

func TestLiveProcsAcrossRestarts(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", func(p *Proc) { p.Sleep(1) })
	b := e.Spawn("b", func(p *Proc) { p.Sleep(2) })
	if n := e.LiveProcs(); n != 2 {
		t.Fatalf("LiveProcs = %d after two spawns, want 2", n)
	}
	for round := 0; round < 3; round++ {
		e.Run(e.Now() + 1)
		if n := e.LiveProcs(); n != 1 {
			t.Fatalf("round %d: LiveProcs = %d with b still sleeping, want 1", round, n)
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if n := e.LiveProcs(); n != 0 {
			t.Fatalf("round %d: LiveProcs = %d after both finished, want 0", round, n)
		}
		e.RestartAt(e.Now(), a)
		e.RestartAt(e.Now(), b)
		if n := e.LiveProcs(); n != 2 {
			t.Fatalf("round %d: LiveProcs = %d after two restarts, want 2", round, n)
		}
	}
}

// TestRunFromTwoGoroutines drives one engine's Run windows alternately
// from two goroutines, the way a worker pool moves engines between its
// workers, and checks the processes see the same history as under one
// goroutine.
func TestRunFromTwoGoroutines(t *testing.T) {
	run := func(drive func(e *Engine, until float64)) []float64 {
		e := NewEngine()
		var got []float64
		for i := 0; i < 4; i++ {
			d := 0.3 + 0.2*float64(i)
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(d)
					got = append(got, p.Now())
				}
			})
		}
		for w := 1; w <= 30; w++ {
			drive(e, float64(w))
		}
		if e.LiveProcs() != 0 {
			t.Fatalf("%d processes still live", e.LiveProcs())
		}
		return got
	}
	want := run(func(e *Engine, until float64) {
		if err := e.Run(until); err != nil {
			t.Fatal(err)
		}
	})

	work := [2]chan float64{make(chan float64), make(chan float64)}
	done := make(chan error)
	var eng *Engine
	for _, ch := range work {
		go func(ch chan float64) {
			for until := range ch {
				done <- eng.Run(until)
			}
		}(ch)
	}
	turn := 0
	got := run(func(e *Engine, until float64) {
		eng = e
		work[turn%2] <- until
		turn++
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	close(work[0])
	close(work[1])
	if len(got) != len(want) {
		t.Fatalf("%d wake-ups across goroutines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wake-up %d at %v across goroutines, want %v", i, got[i], want[i])
		}
	}
}

func TestProcSwitchAllocs(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	if a := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 1) }); a != 0 {
		t.Errorf("Sleep round trip: %v allocs, want 0", a)
	}

	parked := e.Spawn("parked", func(p *Proc) {
		for {
			p.Suspend()
		}
	})
	e.Run(e.Now())
	if a := testing.AllocsPerRun(100, func() {
		e.Wake(parked)
		e.Run(e.Now())
	}); a != 0 {
		t.Errorf("Suspend/Wake round trip: %v allocs, want 0", a)
	}

	body := func(p *Proc) { p.Sleep(1) }
	if a := testing.AllocsPerRun(100, func() {
		e.Spawn("short", body)
		e.Run(e.Now() + 1)
	}); a > 1 {
		t.Errorf("Spawn to completion on a warm pool: %v allocs, want <= 1", a)
	}
}

// TestIdleWorkersStopWithEngine checks that an unreachable engine's idle
// workers do not outlive it: their coroutines exit once the collector
// finds the engine gone.
func TestIdleWorkersStopWithEngine(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		e := NewEngine()
		for i := 0; i < 50; i++ {
			e.Spawn("p", func(p *Proc) { p.Sleep(1) })
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(e.pool.idle) != 50 {
			t.Fatalf("%d idle workers, want 50", len(e.pool.idle))
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d: idle workers outlived their engine", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
