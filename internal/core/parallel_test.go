package core

import (
	"context"
	"math"
	"testing"
	"time"

	"kgexplore/internal/exec"
	"kgexplore/internal/lftj"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

func TestRunParallelConverges(t *testing.T) {
	pl, _, st := fig5(t, true)
	exact := lftj.GroupDistinct(st, pl)
	res, err := RunParallel(context.Background(), st, pl,
		Options{Threshold: DefaultThreshold, Seed: 17}, 4, exec.Options{MaxWalks: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Walks != 80000 {
		t.Errorf("merged walks = %d, want 80000", res.Walks)
	}
	for a, ex := range exact {
		rel := math.Abs(res.Estimates[a]-float64(ex)) / float64(ex)
		if rel > 0.08 {
			t.Errorf("group %d: %.3f vs %d", a, res.Estimates[a], ex)
		}
	}
}

func TestRunParallelSingleWorkerMatchesSerial(t *testing.T) {
	pl, _, st := fig5(t, false)
	res, err := RunParallel(context.Background(), st, pl,
		Options{Threshold: DefaultThreshold, Seed: 5}, 1, exec.Options{MaxWalks: 5000})
	if err != nil {
		t.Fatal(err)
	}
	serial := New(st, pl, Options{Threshold: DefaultThreshold, Seed: 5})
	exec.RunN(serial, 5000)
	want := serial.Acc().Snapshot(stats.Z95) // the sample: the serial runner itself turns exact
	for a, v := range want.Estimates {
		if res.Estimates[a] != v {
			t.Errorf("group %d: parallel %v vs serial %v", a, res.Estimates[a], v)
		}
	}
}

func TestRunParallelProgressiveSnapshots(t *testing.T) {
	// The streamed snapshots must be merged across workers and advance
	// monotonically in walk count.
	pl, _, st := fig5(t, false)
	var walks []int64
	_, err := RunParallel(context.Background(), st, pl,
		Options{Threshold: DefaultThreshold, Seed: 3}, 4, exec.Options{
			Budget:   200 * time.Millisecond,
			Interval: 10 * time.Millisecond,
			Batch:    64,
			OnSnapshot: func(p exec.Progress) bool {
				walks = append(walks, p.Walks)
				return true
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(walks) < 2 {
		t.Fatalf("got %d progressive snapshots, want >= 2", len(walks))
	}
	for i := 1; i < len(walks); i++ {
		if walks[i] < walks[i-1] {
			t.Errorf("merged walks regressed: %v", walks)
			break
		}
	}
}

func TestRunParallelCancel(t *testing.T) {
	pl, _, st := fig5(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	done := make(chan struct{})
	var res wj.Result
	var err error
	go func() {
		defer close(done)
		res, err = RunParallel(ctx, st, pl,
			Options{Threshold: DefaultThreshold, Seed: 7}, 4, exec.Options{Budget: 30 * time.Second})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunParallel did not return after cancel")
	}
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res.Walks == 0 {
		t.Error("cancelled run returned no partial result")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancel took %v", elapsed)
	}
}

func TestRunParallelSnapshotStop(t *testing.T) {
	// Returning false from the snapshot callback stops all workers with a
	// nil error.
	pl, _, st := fig5(t, false)
	calls := 0
	res, err := RunParallel(context.Background(), st, pl,
		Options{Threshold: DefaultThreshold, Seed: 11}, 2, exec.Options{
			Budget:   30 * time.Second,
			Interval: time.Millisecond,
			Batch:    64,
			OnSnapshot: func(exec.Progress) bool {
				calls++
				return calls < 3
			},
		})
	if err != nil {
		t.Fatalf("stop via callback returned error %v", err)
	}
	if res.Walks == 0 {
		t.Error("stopped run returned no result")
	}
}

func TestMergeAccumulators(t *testing.T) {
	a := wj.NewAcc()
	b := wj.NewAcc()
	a.N, b.N = 10, 20
	a.Rejected, b.Rejected = 1, 2
	a.Add(1, 5)
	b.Add(1, 7)
	b.Add(2, 3)
	b.AddRatio(3, 4, 2)
	a.Merge(b)
	if a.N != 30 || a.Rejected != 3 {
		t.Errorf("N/Rejected = %d/%d", a.N, a.Rejected)
	}
	if a.Sum[1] != 12 || a.Sum[2] != 3 {
		t.Errorf("sums = %v", a.Sum)
	}
	if a.SumSq[1] != 25+49 {
		t.Errorf("sumsq = %v", a.SumSq)
	}
	if a.Den[3] != 2 {
		t.Errorf("den = %v", a.Den)
	}
}
