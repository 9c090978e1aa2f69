package staging

import (
	"fmt"
	"strings"
	"testing"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/sim"
)

// guardedRig stages a 3-level hierarchy over ssd+hdd (or hdd alone),
// injects read errors on the hdd from t=0 until clearAt, and runs read
// in a process on a fresh engine. It returns the retry backoffs the
// read notified (as printed) and the virtual time it returned at.
func guardedRig(t *testing.T, hddOnly bool, clearAt float64,
	read func(p *sim.Proc, s *Store, cg *blkio.Cgroup, notify Notify)) (backoffs []string, done float64) {
	t.Helper()
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	tiers := []*device.Device{ssd, hdd}
	if hddOnly {
		tiers = []*device.Device{hdd}
	}
	h, err := refactor.Decompose(field(33, 4), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, tiers)
	if err != nil {
		t.Fatal(err)
	}
	hdd.SetReadError(true)
	eng.At(clearAt, func() { hdd.SetReadError(false) })
	notify := func(kind, msg string) {
		if i := strings.Index(msg, "backoff="); i >= 0 {
			backoffs = append(backoffs, strings.Fields(msg[i+len("backoff="):])[0])
		}
	}
	eng.Spawn("reader", func(p *sim.Proc) {
		read(p, s, blkio.NewCgroup("a"), notify)
		done = p.Now()
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	return backoffs, done
}

// retrySchedule replays the guarded read's delay schedule (0.05 s,
// doubling, capped at 5 s) from a first failed attempt at start, and
// returns the backoffs slept before the first attempt at or after
// clearAt, plus that attempt's time.
func retrySchedule(start, clearAt float64) ([]string, float64) {
	var out []string
	t, d := start, 0.05
	for t < clearAt {
		out = append(out, fmt.Sprintf("%.3fs", d))
		t += d
		d *= 2
		if d > 5 {
			d = 5
		}
	}
	return out, t
}

// hddSuffix returns the cursor where the hierarchy's hdd-resident
// (finest-level) suffix starts, the total entry count, and the suffix's
// byte count.
func hddSuffix(s *Store) (boundary, total int, bytes float64) {
	h := s.Hierarchy()
	total = h.TotalEntries()
	for _, seg := range h.Segments(0, total) {
		if s.DeviceForLevel(seg.Level).Name() == "hdd" {
			bytes += float64(seg.Bytes)
			continue
		}
		boundary += seg.End - seg.Start
	}
	return boundary, total, bytes
}

// TestGuardedReadRetryContract pins the ad-hoc (no resil controller)
// retry contract of ReadBaseGuarded and ReadRangeGuarded under an
// injected capacity-tier read error: mandatory data retries until the
// fault clears on a 0.05 s doubling backoff capped at 5 s, optional
// augmentation gives up after 4 attempts and degrades at the mandatory
// boundary, and Retries and the virtual time spent are exact.
func TestGuardedReadRetryContract(t *testing.T) {
	const clearAt = 20.0 // past the cap: 0.05 … 3.2 s, then 5, 5, 5
	const hddBW = 100 * device.MB

	t.Run("base-mandatory", func(t *testing.T) {
		var out GuardedOutcome
		var el, xfer float64
		got, done := guardedRig(t, true, clearAt, func(p *sim.Proc, s *Store, cg *blkio.Cgroup, n Notify) {
			xfer = float64(s.Hierarchy().BaseBytes()) / hddBW
			var ts *TierStats
			ts, out = s.ReadBaseGuarded(p, cg, n)
			_, el = ts.Total()
		})
		want, okAt := retrySchedule(0, clearAt)
		if len(want) != 10 || want[7] != "5.000s" || want[9] != "5.000s" {
			t.Fatalf("schedule replay off: %v", want)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("backoffs %v, want %v", got, want)
		}
		if out.Retries != len(want) || out.Degraded || out.Cursor != 0 {
			t.Fatalf("outcome %+v, want %d retries, not degraded, cursor 0", out, len(want))
		}
		if done != okAt+xfer || el != done {
			t.Fatalf("base read returned at %v (tier elapsed %v), want %v", done, el, okAt+xfer)
		}
	})

	t.Run("range-mandatory", func(t *testing.T) {
		var out GuardedOutcome
		var boundary, total int
		var start, xfer float64
		got, done := guardedRig(t, false, clearAt, func(p *sim.Proc, s *Store, cg *blkio.Cgroup, n Notify) {
			var bytes float64
			boundary, total, bytes = hddSuffix(s)
			xfer = bytes / hddBW
			s.ReadRange(p, cg, 0, boundary) // fast tier: reads cleanly
			start = p.Now()
			_, out = s.ReadRangeGuarded(p, cg, boundary, total, total, n)
		})
		if boundary == 0 || boundary == total {
			t.Fatalf("hierarchy has no hdd suffix (boundary %d of %d)", boundary, total)
		}
		want, okAt := retrySchedule(start, clearAt)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("backoffs %v, want %v", got, want)
		}
		if out.Retries != len(want) || out.Degraded || out.Cursor != total {
			t.Fatalf("outcome %+v, want %d retries, cursor %d", out, len(want), total)
		}
		if done != okAt+xfer {
			t.Fatalf("range read returned at %v, want %v", done, okAt+xfer)
		}
	})

	t.Run("range-optional-degrades", func(t *testing.T) {
		var out GuardedOutcome
		var boundary, total int
		var start float64
		got, done := guardedRig(t, false, clearAt, func(p *sim.Proc, s *Store, cg *blkio.Cgroup, n Notify) {
			boundary, total, _ = hddSuffix(s)
			s.ReadRange(p, cg, 0, boundary)
			start = p.Now()
			// Mandatory cursor at the boundary: the whole hdd suffix is
			// optional augmentation.
			_, out = s.ReadRangeGuarded(p, cg, boundary, total, boundary, n)
		})
		want := []string{"0.050s", "0.100s", "0.200s"} // 4 attempts, 3 retries
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("backoffs %v, want %v", got, want)
		}
		if out.Retries != 3 || !out.Degraded || out.Cursor != boundary {
			t.Fatalf("outcome %+v, want 3 retries, degraded at cursor %d", out, boundary)
		}
		if done != start+0.05+0.1+0.2 {
			t.Fatalf("degraded read returned at %v, want %v", done, start+0.05+0.1+0.2)
		}
	})
}
