package oracle

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// replicaSides returns S samplers over distinct distributions, so a
// side mix-up changes the draws.
func replicaSides(S int) []Oracle {
	sides := make([]Oracle, S)
	for s := range sides {
		w := make([]float64, 64)
		for i := range w {
			w[i] = float64((i*(s+3))%11 + 1)
		}
		sides[s] = NewSampler(dist.MustDense(w), rng.New(uint64(100+s)))
	}
	return sides
}

// TestReplicasForkOrder pins the fork path's golden order against a
// hand-written SplitInto sequence: r is split replicate-major, sides in
// order within a replicate, each side forked onto its split stream —
// for one side (the ADK sieve) and two (the DKN'17 vote), at every
// worker count. Clone draws land in the parents' counters.
func TestReplicasForkOrder(t *testing.T) {
	const reps, seed = 5, 42
	for _, S := range []int{1, 2} {
		// The hand-written reference: replicate i side s draws once from
		// its clone, then reads one word from its stream.
		type obs struct {
			draw int
			word uint64
		}
		want := make([]obs, reps*S)
		ref, refSides := rng.New(seed), replicaSides(S)
		for i := 0; i < reps; i++ {
			for s := 0; s < S; s++ {
				child := new(rng.RNG)
				ref.SplitInto(child)
				clone := refSides[s].(Forker).Fork(child)
				want[i*S+s] = obs{clone.Draw(), child.Uint64()}
			}
		}
		refNext := ref.Uint64()

		for _, workers := range []int{1, 2, 4} {
			r, sides := rng.New(seed), replicaSides(S)
			var rp Replicas
			got := make([]obs, reps*S)
			if _, err := rp.Run(context.Background(), r, reps, workers, true, func(_, i int) {
				for s := 0; s < S; s++ {
					o, rr := rp.Side(i, s)
					got[i*S+s] = obs{o.Draw(), rr.Uint64()}
				}
			}, sides...); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("S=%d workers=%d: replicate %d side %d got %+v, want %+v", S, workers, j/S, j%S, got[j], want[j])
				}
			}
			if next := r.Uint64(); next != refNext {
				t.Fatalf("S=%d workers=%d: r advanced differently from %d SplitInto calls", S, workers, reps*S)
			}
			for s, o := range sides {
				if o.Samples() != reps {
					t.Fatalf("S=%d workers=%d: side %d absorbed %d draws, want %d", S, workers, s, o.Samples(), reps)
				}
			}
		}
	}
}

// TestReplicasAbsorbOnCancel: clone draws are folded back into the
// parents when ctx is done before or during the run, and every pooled
// Counts the replicates acquired is released.
func TestReplicasAbsorbOnCancel(t *testing.T) {
	const reps, mean = 6, 200
	for _, tc := range []struct {
		name     string
		workers  int
		cancelAt int // replicate that cancels; -1 cancels before Run
	}{
		{"before", 2, -1},
		{"during serial", 1, 1},
		{"during parallel", 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAt < 0 {
				cancel()
			}
			sides := replicaSides(2)
			var rp Replicas
			var drawn [2]atomic.Int64
			before := PoolStatsSnapshot()
			_, err := rp.Run(ctx, rng.New(7), reps, tc.workers, true, func(_, i int) {
				for s := range drawn {
					o, rr := rp.Side(i, s)
					c := DrawCounts(o, rr, mean)
					drawn[s].Add(int64(c.Total()))
					c.Release()
				}
				if i == tc.cancelAt {
					cancel()
				}
			}, sides...)
			after := PoolStatsSnapshot()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			for s, o := range sides {
				if o.Samples() != drawn[s].Load() {
					t.Fatalf("side %d: parent counts %d draws, clones drew %d", s, o.Samples(), drawn[s].Load())
				}
			}
			if tc.cancelAt >= 0 && drawn[0].Load() == 0 {
				t.Fatal("no replicate ran before the cancellation")
			}
			if a, r := after.Acquires-before.Acquires, after.Releases-before.Releases; a != r {
				t.Fatalf("pool acquires %d != releases %d", a, r)
			}
		})
	}
}

// TestReplicasSerialPath: without fork, replicates run in order on the
// calling goroutine (one worker, whatever the width asked for), each
// handed the parents themselves and r — so non-forkable oracles such as
// a Replay keep their single stream.
func TestReplicasSerialPath(t *testing.T) {
	rep, err := NewReplay(4, []int{0, 1, 2, 3, 0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	sides := []Oracle{rep, replicaSides(1)[0]}
	r := rng.New(3)
	var rp Replicas
	var mu sync.Mutex
	var order []int
	nw, err := rp.Run(context.Background(), r, 5, 8, false, func(worker, i int) {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, i)
		if worker != 0 {
			t.Errorf("replicate %d ran on worker %d", i, worker)
		}
		for s, parent := range sides {
			if o, rr := rp.Side(i, s); o != parent || rr != r {
				t.Errorf("replicate %d side %d: handed (%v, %p), want the parent and r", i, s, o, rr)
			}
		}
	}, sides...)
	if err != nil || nw != 1 {
		t.Fatalf("Run = (%d, %v), want one worker", nw, err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("replicates ran in order %v", order)
		}
	}
}

func TestCanForkAll(t *testing.T) {
	rep, err := NewReplay(4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := replicaSides(2)
	for _, tc := range []struct {
		name string
		os   []Oracle
		want bool
	}{
		{"samplers", s, true},
		{"replay", []Oracle{rep}, false},
		{"mixed", []Oracle{s[0], rep}, false},
		{"none", nil, true},
	} {
		if got := CanForkAll(tc.os...); got != tc.want {
			t.Errorf("%s: CanForkAll = %v, want %v", tc.name, got, tc.want)
		}
	}
}
