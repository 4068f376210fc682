package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/histtest/client"
)

// TestDrainRejectionBeatsDeadline pins the await ordering when a job is
// rejected at enqueue because the server closed between admission and
// enqueue. The closed branch cancels the freshly started admission
// deadline and then delivers the ErrCodeDraining result, so by the time
// await runs BOTH of its select arms are ready; before the fix Go's
// random select choice answered roughly half of these requests with
// ErrCodeCanceled (a terminal 504) instead of the retryable 503 the
// drain contract promises. The loop makes a regression a near-certain
// failure rather than a coin flip.
func TestDrainRejectionBeatsDeadline(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, DefaultTimeout: time.Second})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	for i := 0; i < 200; i++ {
		if !s.reserve(1) {
			t.Fatal("reserve failed on an idle drained server")
		}
		j := s.enqueue(context.Background(), &runSpec{timeout: time.Minute}, i)
		res := await(j)
		if res.Code != client.ErrCodeDraining {
			t.Fatalf("iteration %d: drain-rejected job answered with code %q (err %q), want %q",
				i, res.Code, res.Err, client.ErrCodeDraining)
		}
	}
}

// TestHugeTimeoutClampsToMax pins the deadline clamp against overflow:
// timeout_ms is clamped to MaxTimeout before it becomes a Duration. The
// old multiply-then-clamp wrapped negative for timeout_ms >= 10¹³, which
// enqueue reads as "no deadline" — a client-side opt-out of the cap.
func TestHugeTimeoutClampsToMax(t *testing.T) {
	s := New(Config{Workers: 1, JanitorInterval: -1})
	defer s.Close()
	for _, ms := range []int64{1 << 62, 1e13, math.MaxInt64} {
		sp, err := s.resolve(&client.TestRequest{
			Spec: &client.HistogramSpec{N: 64, Cuts: []int{32}, Masses: []float64{0.5, 0.5}},
			K:    2, Eps: 0.5, TimeoutMS: ms,
		})
		if err != nil {
			t.Fatalf("timeout_ms=%d: resolve: %v", ms, err)
		}
		if sp.timeout != s.cfg.MaxTimeout {
			t.Fatalf("timeout_ms=%d resolved to %v, want MaxTimeout %v", ms, sp.timeout, s.cfg.MaxTimeout)
		}
	}
}
