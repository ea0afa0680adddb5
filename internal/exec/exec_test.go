package exec

import (
	"context"
	"testing"
	"time"

	"kgexplore/internal/rdf"
	"kgexplore/internal/wj"
)

// fakeStepper counts steps; each Step can optionally sleep to simulate work.
type fakeStepper struct {
	n     int64
	delay time.Duration
}

func (f *fakeStepper) Step() {
	f.n++
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
}
func (f *fakeStepper) Walks() int64 { return f.n }
func (f *fakeStepper) Snapshot() wj.Result {
	return wj.Result{Walks: f.n, Estimates: map[rdf.ID]float64{wj.GlobalGroup: float64(f.n)}}
}

func TestDriveMaxWalksExact(t *testing.T) {
	f := &fakeStepper{}
	rep, err := Drive(context.Background(), f, Options{MaxWalks: 1000, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Walks != 1000 || f.n != 1000 {
		t.Errorf("walks = %d (stepper %d), want exactly 1000", rep.Walks, f.n)
	}
	if rep.Final.Walks != 1000 {
		t.Errorf("final snapshot walks = %d", rep.Final.Walks)
	}
}

func TestDriveMaxWalksNotMultipleOfBatch(t *testing.T) {
	f := &fakeStepper{}
	rep, err := Drive(context.Background(), f, Options{MaxWalks: 777, Batch: 256})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Walks != 777 {
		t.Errorf("walks = %d, want 777 (last batch must be clipped)", rep.Walks)
	}
}

func TestDriveCountsOnlyOwnWalks(t *testing.T) {
	// A reused stepper: the report counts this call's walks, not lifetime.
	f := &fakeStepper{}
	RunN(f, 500)
	rep, err := Drive(context.Background(), f, Options{MaxWalks: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Walks != 100 {
		t.Errorf("walks = %d, want 100 on a reused stepper", rep.Walks)
	}
	if f.n != 600 {
		t.Errorf("stepper lifetime walks = %d, want 600", f.n)
	}
}

func TestDriveBudgetStops(t *testing.T) {
	f := &fakeStepper{delay: 100 * time.Microsecond}
	start := time.Now()
	rep, err := Drive(context.Background(), f, Options{Budget: 30 * time.Millisecond, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Walks == 0 {
		t.Error("budgeted drive performed no walks")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("30ms budget ran for %v", elapsed)
	}
}

func TestDriveProgressiveSnapshots(t *testing.T) {
	f := &fakeStepper{delay: 50 * time.Microsecond}
	var seqs []int
	var walks []int64
	rep, err := Drive(context.Background(), f, Options{
		Budget:   120 * time.Millisecond,
		Interval: 10 * time.Millisecond,
		Batch:    16,
		OnSnapshot: func(p Progress) bool {
			seqs = append(seqs, p.Seq)
			walks = append(walks, p.Walks)
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(walks) < 2 {
		t.Fatalf("got %d snapshots, want >= 2", len(walks))
	}
	for i := range seqs {
		if seqs[i] != i+1 {
			t.Errorf("seq[%d] = %d", i, seqs[i])
		}
	}
	for i := 1; i < len(walks); i++ {
		if walks[i] <= walks[i-1] {
			t.Errorf("snapshot walks not strictly increasing: %v", walks)
			break
		}
	}
	if rep.Snapshots != len(walks) {
		t.Errorf("Report.Snapshots = %d, callback saw %d", rep.Snapshots, len(walks))
	}
}

func TestDriveFinalSnapshotWithoutInterval(t *testing.T) {
	// With no interval, OnSnapshot sees exactly one snapshot: the final one.
	f := &fakeStepper{}
	var got []Progress
	_, err := Drive(context.Background(), f, Options{
		MaxWalks:   100,
		OnSnapshot: func(p Progress) bool { got = append(got, p); return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Final || got[0].Walks != 100 {
		t.Fatalf("final-only snapshots = %+v", got)
	}
}

func TestDriveFinalSnapshotNotDuplicated(t *testing.T) {
	// An interval snapshot falling due on the batch that ends the run is
	// delivered as the final one, so streamed walk counts stay strictly
	// increasing and the last event carries the Final flag.
	f := &fakeStepper{}
	var walks []int64
	var finals []bool
	_, err := Drive(context.Background(), f, Options{
		MaxWalks: 100,
		Interval: time.Nanosecond, // emit after every batch
		Batch:    50,
		OnSnapshot: func(p Progress) bool {
			walks = append(walks, p.Walks)
			finals = append(finals, p.Final)
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(walks) != 2 || walks[0] != 50 || walks[1] != 100 || finals[0] || !finals[1] {
		t.Errorf("snapshots walks %v finals %v, want [50 100] with only the last final", walks, finals)
	}
}

func TestDriveAlwaysDeliversFinal(t *testing.T) {
	// Budget = 2·Interval is the shape that used to lose the Final flag: the
	// second interval snapshot fell due as the budget elapsed, covered every
	// walk, and suppressed the final emit. Every stream must end with exactly
	// one Final event, whatever the timing.
	for trial := 0; trial < 20; trial++ {
		f := &fakeStepper{delay: 10 * time.Microsecond}
		var finals []bool
		rep, err := Drive(context.Background(), f, Options{
			Budget:   4 * time.Millisecond,
			Interval: 2 * time.Millisecond,
			Batch:    8,
			OnSnapshot: func(p Progress) bool {
				finals = append(finals, p.Final)
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		n := len(finals)
		if n == 0 || !finals[n-1] {
			t.Fatalf("trial %d: stream %v does not end with a Final event", trial, finals)
		}
		for _, fin := range finals[:n-1] {
			if fin {
				t.Fatalf("trial %d: Final before the last event: %v", trial, finals)
			}
		}
		if rep.Snapshots != n {
			t.Errorf("trial %d: Report.Snapshots = %d, callback saw %d", trial, rep.Snapshots, n)
		}
	}
}

func TestDrivePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &fakeStepper{}
	rep, err := Drive(ctx, f, Options{Budget: time.Second})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if rep.Walks != 0 || f.n != 0 {
		t.Errorf("pre-cancelled drive performed %d walks", f.n)
	}
}

func TestDriveCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fakeStepper{delay: 20 * time.Microsecond}
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, err := Drive(ctx, f, Options{Budget: 30 * time.Second, Batch: 16})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancel took %v", elapsed)
	}
	if rep.Walks == 0 {
		t.Error("cancelled drive reported no walks")
	}
	// The report is consistent: no step was interrupted mid-walk.
	if rep.Final.Walks != f.n || rep.Walks != f.n {
		t.Errorf("report walks %d / final %d vs stepper %d", rep.Walks, rep.Final.Walks, f.n)
	}
}

func TestDriveOnSnapshotStop(t *testing.T) {
	f := &fakeStepper{delay: 20 * time.Microsecond}
	calls := 0
	rep, err := Drive(context.Background(), f, Options{
		Budget:   30 * time.Second,
		Interval: time.Millisecond,
		Batch:    16,
		OnSnapshot: func(Progress) bool {
			calls++
			return calls < 3
		},
	})
	if err != nil {
		t.Errorf("stop via callback returned error %v", err)
	}
	if calls != 3 {
		t.Errorf("callback ran %d times, want 3", calls)
	}
	if rep.Walks == 0 {
		t.Error("stopped drive reported no walks")
	}
}

func TestRunN(t *testing.T) {
	f := &fakeStepper{}
	RunN(f, 123)
	if f.n != 123 {
		t.Errorf("RunN performed %d steps", f.n)
	}
}

// exactAfter is a stepper whose answer turns exact after a fixed number of
// steps, like core.Runner's finite-population finish.
type exactAfter struct {
	fakeStepper
	at int64
}

func (e *exactAfter) Exact() bool { return e.n >= e.at }
func (e *exactAfter) Snapshot() wj.Result {
	s := e.fakeStepper.Snapshot()
	s.Exact = e.Exact()
	return s
}

// TestDriveEndsExactStepperEarly: Drive stops within one batch of the stepper
// turning exact, whatever budget or cap remains, and delivers exactly one
// Final snapshot — never an exact one that is not final.
func TestDriveEndsExactStepperEarly(t *testing.T) {
	for _, xo := range []Options{
		{Budget: time.Minute, Interval: time.Nanosecond, Batch: 64},
		{MaxWalks: 1 << 30, Batch: 64},
		{Batch: 64},
	} {
		e := &exactAfter{at: 300}
		var finals, exactNonFinal int
		xo.OnSnapshot = func(p Progress) bool {
			if p.Final {
				finals++
			} else if p.Snapshot.Exact {
				exactNonFinal++
			}
			return true
		}
		rep, err := Drive(context.Background(), e, xo)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Walks < 300 || rep.Walks >= 300+64 {
			t.Errorf("%+v: %d walks, want the batch that crossed 300", xo, rep.Walks)
		}
		if !rep.Final.Exact || finals != 1 || exactNonFinal != 0 {
			t.Errorf("%+v: final exact=%v, %d final events, %d exact non-final events", xo, rep.Final.Exact, finals, exactNonFinal)
		}
	}
}
