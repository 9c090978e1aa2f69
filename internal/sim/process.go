//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
)

// Proc is a simulated process: user code that runs on a coroutine and
// yields control back to the engine whenever it blocks on virtual time
// (Sleep) or on an external wake-up (Suspend). A Proc must only call its
// blocking methods from its own body function.
type Proc struct {
	eng  *Engine
	name string
	fn   func(p *Proc)
	w    *worker // coroutine running the body; nil before the first resume and after finish

	done      bool
	suspended bool
	err       error
}

// worker is a pooled coroutine that runs process bodies, one at a time.
// Switching into and out of it is a direct goroutine switch (iter.Pull),
// with no trip through the scheduler's run queue. Creating one costs
// about a dozen allocations, so finished workers go back to the engine's
// free list and the next process to start takes one from there.
type worker struct {
	p     *Proc // bound process; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// workerPool is an engine's free list of idle workers. It sits in its own
// object so that a finalizer can stop the idle coroutines once the
// engine is unreachable: nothing an idle worker holds points back at the
// pool or the engine, while a worker still running a process body keeps
// both alive.
type workerPool struct {
	idle []*worker
}

func stopIdle(pl *workerPool) {
	for _, w := range pl.idle {
		w.stop()
	}
}

// takeWorker pops an idle worker, or starts a new coroutine on a miss.
//
//tango:hotpath
func (e *Engine) takeWorker() *worker {
	pl := e.pool
	if pl == nil {
		pl = new(workerPool)
		runtime.SetFinalizer(pl, stopIdle)
		e.pool = pl
	}
	if n := len(pl.idle); n > 0 {
		w := pl.idle[n-1]
		pl.idle[n-1] = nil
		pl.idle = pl.idle[:n-1]
		return w
	}
	w := new(worker)
	//lint:ignore hotpath pool miss: one coroutine per peak-concurrent process, reused by every later process
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// loop is the worker's coroutine body: run the bound process to
// completion, return to the free list, and wait for the next binding.
//
//tango:hotpath
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		p := w.p
		p.run()
		p.done = true
		p.w = nil
		w.p = nil
		e := p.eng
		e.procs--
		e.pool.idle = append(e.pool.idle, w)
		if !yield(struct{}{}) {
			return // the pool's finalizer stopped this idle worker
		}
	}
}

// run executes the body, capturing a panic into p.err.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
		}
	}()
	p.fn(p)
}

// Fire implements Callback for the engine's resume events, which carry
// their process directly so that scheduling one allocates nothing. It is
// the engine's hook, not an API: resume a suspended process with Wake.
//
//tango:hotpath
func (p *Proc) Fire() { p.eng.resume(p) }

// Spawn starts fn as a new simulated process. The process begins executing
// at the current virtual time, after events already scheduled at this
// instant. A panic inside fn is captured and surfaces via Engine.Err.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with the first execution scheduled at virtual time t
// instead of now (past times clamp to the present, like At). It lets a
// scheduler arm a process body directly at its start time with a single
// event, where an At(t, ...) trampoline that Spawns on firing would
// insert two. The process takes a worker at its first resume, not here.
func (e *Engine) SpawnAt(t float64, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	e.procs++
	if e.trace != nil {
		e.tracef("spawn %q", name)
	}
	e.AtCall(t, p)
	return p
}

// RestartAt runs a finished process's body again from the top, starting
// at virtual time t (clamped to the present, like At). The process keeps
// its identity and name, counts as live again, and its start takes one
// event, in the queue slot this call owns. Restarting a process that has
// not finished panics.
func (e *Engine) RestartAt(t float64, p *Proc) {
	if !p.done {
		panic(fmt.Sprintf("sim: restart of live process %q", p.name))
	}
	p.done = false
	p.err = nil
	e.procs++
	e.AtCall(t, p)
}

// resume transfers control to p and returns when p yields or finishes,
// binding p to a pooled worker on its first resume. It must be called
// from the engine context (an event callback).
//
//tango:hotpath
func (e *Engine) resume(p *Proc) {
	if p.done {
		return
	}
	if p.w == nil {
		p.w = e.takeWorker()
		p.w.p = p
	}
	p.w.next()
	if p.err != nil {
		e.fail(p.err)
	}
}

// yield transfers control back to the engine and returns when resumed.
func (p *Proc) yield() { p.w.yield(struct{}{}) }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep blocks the process for d seconds of virtual time. Negative
// durations are treated as zero (the process still yields, letting other
// events at the same instant run first).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.AtCall(e.now+d, p)
	p.yield()
}

// Suspend parks the process until some other process or event callback
// calls Engine.Wake (or p.Wake) on it. Suspend returns at the virtual time
// of the wake-up.
func (p *Proc) Suspend() {
	p.suspended = true
	p.yield()
}

// Wake schedules a suspended process to resume at the current virtual
// time. Waking a process that is not suspended (or already woken at this
// instant, or finished) is a no-op; this makes completion notifications
// idempotent.
func (e *Engine) Wake(p *Proc) {
	if p == nil || p.done || !p.suspended {
		return
	}
	p.suspended = false
	e.AtCall(e.now, p)
}

// Wake is a convenience for Engine.Wake from another process context.
func (p *Proc) Wake(other *Proc) { p.eng.Wake(other) }
