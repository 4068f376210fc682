package histtest

import (
	"errors"
	"math"
	"testing"
)

// fourBucket returns a well-separated 4-histogram over [0, n).
func fourBucket(t *testing.T, n int) *Histogram {
	t.Helper()
	h, err := NewHistogram(n, []int{n / 8, n / 2, 3 * n / 4}, []float64{0.4, 0.1, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(10, []int{5}, []float64{0.5}); err == nil {
		t.Fatal("mass/bucket mismatch accepted")
	}
	if _, err := NewHistogram(10, []int{5}, []float64{0.5, -0.1}); err == nil {
		t.Fatal("negative mass accepted")
	}
	if _, err := NewHistogram(10, []int{5}, []float64{0, 0}); err == nil {
		t.Fatal("zero mass accepted")
	}
	h, err := NewHistogram(10, []int{5}, []float64{3, 1}) // normalizes
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Prob(0)-0.75/5) > 1e-12 {
		t.Fatalf("Prob(0) = %v", h.Prob(0))
	}
}

func TestHistogramAccessors(t *testing.T) {
	h := fourBucket(t, 256)
	if h.N() != 256 || h.Buckets() != 4 || h.Complexity() != 4 {
		t.Fatalf("N=%d buckets=%d complexity=%d", h.N(), h.Buckets(), h.Complexity())
	}
	if got := h.Selectivity(0, 256); math.Abs(got-1) > 1e-12 {
		t.Fatalf("full-range selectivity = %v", got)
	}
	if got := h.Selectivity(0, 32); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("first-bucket selectivity = %v", got)
	}
	lower, upper, err := h.DistanceToClass(4)
	if err != nil {
		t.Fatal(err)
	}
	if lower != 0 || upper > 1e-12 {
		t.Fatalf("distance to own class = [%v, %v]", lower, upper)
	}
	lower, _, _ = h.DistanceToClass(1)
	if lower <= 0.05 {
		t.Fatalf("distance to H_1 = %v, should be substantial", lower)
	}
}

func TestHistogramStatistics(t *testing.T) {
	u := Uniform(8)
	if math.Abs(u.Mean()-3.5) > 1e-9 {
		t.Fatalf("Mean = %v", u.Mean())
	}
	if math.Abs(u.Entropy()-3) > 1e-9 {
		t.Fatalf("Entropy = %v", u.Entropy())
	}
	if u.Quantile(0.5) != 3 {
		t.Fatalf("Quantile = %d", u.Quantile(0.5))
	}
	if u.Modality() != 1 {
		t.Fatalf("Modality = %d", u.Modality())
	}
	h := fourBucket(t, 256)
	if h.Modality() < 2 {
		t.Fatalf("four-bucket modality = %d", h.Modality())
	}
	if h.Quantile(1) != 255 {
		t.Fatalf("Quantile(1) = %d", h.Quantile(1))
	}
}

func TestTestSourceAcceptsHistogram(t *testing.T) {
	h := fourBucket(t, 512)
	accepts := 0
	for i := uint64(0); i < 8; i++ {
		v, err := TestSource(h.Sampler(100+i), 512, 4, 0.5, Options{Seed: 200 + i})
		if err != nil {
			t.Fatal(err)
		}
		if v.IsKHistogram {
			accepts++
		}
		if v.SamplesUsed <= 0 {
			t.Fatal("no samples recorded")
		}
	}
	if accepts < 6 {
		t.Fatalf("accepted %d/8", accepts)
	}
}

func TestTestSourceRejectsFar(t *testing.T) {
	// Alternating comb via an explicit 256-bucket histogram.
	n := 256
	cuts := make([]int, 0, n-1)
	masses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			cuts = append(cuts, i)
		}
		if i%2 == 0 {
			masses = append(masses, 2.0/float64(n))
		} else {
			masses = append(masses, 0)
		}
	}
	h, err := NewHistogram(n, cuts, masses)
	if err != nil {
		t.Fatal(err)
	}
	rejects := 0
	for i := uint64(0); i < 8; i++ {
		v, err := TestSource(h.Sampler(300+i), n, 4, 0.45, Options{Seed: 400 + i})
		if err != nil {
			t.Fatal(err)
		}
		if !v.IsKHistogram {
			rejects++
			if v.Stage == "" || v.Detail == "" {
				t.Fatal("rejection missing stage/detail")
			}
		}
	}
	if rejects < 6 {
		t.Fatalf("rejected %d/8", rejects)
	}
}

func TestTestSourceValidation(t *testing.T) {
	h := Uniform(16)
	if _, err := TestSource(h.Sampler(1), 0, 1, 0.5, Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := TestSource(h.Sampler(1), 16, 0, 0.5, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestTestSamplesReplay(t *testing.T) {
	h := Uniform(128)
	src := h.Sampler(7)
	need := RequiredSamples(128, 1, 0.5, Options{})
	data := make([]int, need+need/4)
	for i := range data {
		data[i] = src()
	}
	v, err := TestSamples(data, 128, 1, 0.5, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsKHistogram {
		t.Fatal("uniform dataset rejected")
	}
}

func TestTestSamplesTooFew(t *testing.T) {
	h := Uniform(128)
	src := h.Sampler(9)
	data := make([]int, 100)
	for i := range data {
		data[i] = src()
	}
	_, err := TestSamples(data, 128, 1, 0.5, Options{})
	var need *ErrNeedMoreSamples
	if !errors.As(err, &need) {
		t.Fatalf("expected ErrNeedMoreSamples, got %v", err)
	}
}

func TestOptionsScaleReducesSamples(t *testing.T) {
	if RequiredSamples(1024, 4, 0.5, Options{Scale: 0.25}) >= RequiredSamples(1024, 4, 0.5, Options{}) {
		t.Fatal("Scale < 1 should reduce the budget")
	}
	if RequiredSamples(1024, 4, 0.5, Options{Paper: true}) <= RequiredSamples(1024, 4, 0.5, Options{}) {
		t.Fatal("paper constants should dwarf practical ones")
	}
}

func TestBuildHistogramAndSelectivity(t *testing.T) {
	truth := fourBucket(t, 256)
	src := truth.Sampler(11)
	data := make([]int, 300000)
	for i := range data {
		data[i] = src()
	}
	for _, method := range []BuildMethod{BuildEquiWidth, BuildEquiDepth, BuildMaxDiff, BuildVOptimal} {
		sk, err := BuildHistogram(data, 256, 4, method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if sk.Buckets() > 4 {
			t.Fatalf("%s: %d buckets", method, sk.Buckets())
		}
	}
	// V-optimal on the exact generating histogram recovers it closely.
	vo, err := BuildHistogram(data, 256, 4, BuildVOptimal)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := TotalVariation(truth, vo)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.05 {
		t.Fatalf("V-optimal TV to truth = %v", tv)
	}
	if _, err := BuildHistogram(nil, 16, 2, BuildVOptimal); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := TotalVariation(truth, Uniform(16)); err == nil {
		t.Fatal("mismatched domains accepted")
	}
}

func TestIdentityAcceptsMatch(t *testing.T) {
	h := fourBucket(t, 1024)
	accepts := 0
	for i := uint64(0); i < 10; i++ {
		v, err := TestIdentity(h.Sampler(500+i), h, 0.3, Options{Seed: 600 + i})
		if err != nil {
			t.Fatal(err)
		}
		if v.IsKHistogram {
			accepts++
		}
		if v.SamplesUsed <= 0 {
			t.Fatal("no samples used")
		}
	}
	if accepts < 8 {
		t.Fatalf("identity accepted %d/10 on a perfect match", accepts)
	}
}

func TestIdentityRejectsFar(t *testing.T) {
	ref := fourBucket(t, 1024)
	// A distribution 0.4-far from the reference: swap the bucket weights.
	other, err := NewHistogram(1024, []int{128, 512, 768}, []float64{0.1, 0.4, 0.1, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	rejects := 0
	for i := uint64(0); i < 10; i++ {
		v, err := TestIdentity(other.Sampler(700+i), ref, 0.3, Options{Seed: 800 + i})
		if err != nil {
			t.Fatal(err)
		}
		if !v.IsKHistogram {
			rejects++
			if v.Stage != "identity" || v.Detail == "" {
				t.Fatalf("rejection metadata missing: %+v", v)
			}
		}
	}
	if rejects < 8 {
		t.Fatalf("identity rejected %d/10 on a far distribution", rejects)
	}
}

func TestIdentityUsesFewerSamplesThanFullTest(t *testing.T) {
	// Knowing the hypothesis removes the learning and sieving budgets.
	idBudget := RequiredIdentitySamples(4096, 0.3, Options{})
	fullBudget := RequiredSamples(4096, 4, 0.3, Options{})
	if idBudget*5 > fullBudget {
		t.Fatalf("identity budget %d not far below full budget %d", idBudget, fullBudget)
	}
}

func TestIdentityValidation(t *testing.T) {
	h := Uniform(16)
	if _, err := TestIdentity(h.Sampler(1), nil, 0.3, Options{}); err == nil {
		t.Fatal("nil reference accepted")
	}
	if _, err := TestIdentity(h.Sampler(1), h, 0, Options{}); err == nil {
		t.Fatal("eps = 0 accepted")
	}
}

func TestSmallestK(t *testing.T) {
	truth := fourBucket(t, 512)
	res, err := SmallestK(truth.Sampler(21), 512, 0.4, SelectOptions{
		Options: Options{Seed: 77},
		Reps:    3,
		KMax:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// True complexity is 4; accept anything in [2, 8] (distance slack can
	// legitimately admit slightly smaller k; noise can overshoot a bit).
	if res.K < 2 || res.K > 8 {
		t.Fatalf("selected k = %d for a 4-histogram (probed %v)", res.K, res.Probed)
	}
	if res.SamplesUsed <= 0 || len(res.Probed) == 0 {
		t.Fatal("search accounting missing")
	}
}

func TestSmallestKExhaustsKMax(t *testing.T) {
	// The comb passes for no small k; with KMax = 4 the search must
	// report KMax+1.
	n := 128
	cuts := make([]int, 0, n-1)
	masses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			cuts = append(cuts, i)
		}
		if i%2 == 0 {
			masses = append(masses, 1)
		} else {
			masses = append(masses, 0)
		}
	}
	h, err := NewHistogram(n, cuts, masses)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SmallestK(h.Sampler(31), n, 0.4, SelectOptions{
		Options: Options{Seed: 88},
		Reps:    3,
		KMax:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 5 {
		t.Fatalf("K = %d, want KMax+1 = 5", res.K)
	}
}

func TestPartitionPublicAPI(t *testing.T) {
	h := fourBucket(t, 512) // cuts at 64, 256, 384
	// Aligned partition: accept.
	v, err := TestPartition(h.Sampler(1), 512, []int{64, 256, 384}, 0.4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsKHistogram {
		t.Fatalf("aligned partition rejected: %s", v.Detail)
	}
	// Misaligned partition: the same distribution is far from flat on it.
	v, err = TestPartition(h.Sampler(3), 512, []int{128, 256, 448}, 0.2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v.IsKHistogram {
		t.Fatal("misaligned partition accepted")
	}
	if _, err := TestPartition(h.Sampler(1), 0, nil, 0.4, Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestRandomHistogram(t *testing.T) {
	h, err := Random(1024, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if h.Complexity() != 6 {
		t.Fatalf("complexity = %d", h.Complexity())
	}
	// Deterministic in seed.
	h2, _ := Random(1024, 6, 42)
	if tv, _ := TotalVariation(h, h2); tv != 0 {
		t.Fatal("same seed gave different histograms")
	}
	h3, _ := Random(1024, 6, 43)
	if tv, _ := TotalVariation(h, h3); tv == 0 {
		t.Fatal("different seeds gave identical histograms")
	}
	if _, err := Random(4, 5, 1); err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestClosenessPublicAPI(t *testing.T) {
	a := fourBucket(t, 1024)
	// Same distribution behind both sources: accept.
	accepts := 0
	for i := uint64(0); i < 10; i++ {
		v, err := TestCloseness(a.Sampler(900+i), a.Sampler(950+i), 1024, 4, 0.3, Options{Seed: 1000 + i})
		if err != nil {
			t.Fatal(err)
		}
		if v.IsKHistogram {
			accepts++
		}
		if v.SamplesUsed <= 0 {
			t.Fatal("no samples counted")
		}
	}
	if accepts < 8 {
		t.Fatalf("same-source closeness accepted %d/10", accepts)
	}
	// Far pair: reject.
	b, err := NewHistogram(1024, []int{128, 512, 768}, []float64{0.1, 0.4, 0.1, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	rejects := 0
	for i := uint64(0); i < 10; i++ {
		v, err := TestCloseness(a.Sampler(1100+i), b.Sampler(1150+i), 1024, 4, 0.3, Options{Seed: 1200 + i})
		if err != nil {
			t.Fatal(err)
		}
		if !v.IsKHistogram {
			rejects++
			if v.Stage != "closeness" {
				t.Fatalf("stage = %q", v.Stage)
			}
		}
	}
	if rejects < 8 {
		t.Fatalf("far-pair closeness rejected %d/10", rejects)
	}
	if _, err := TestCloseness(a.Sampler(1), a.Sampler(2), 0, 4, 0.3, Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := TestCloseness(a.Sampler(1), a.Sampler(2), 1024, 0, 0.3, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := TestCloseness(a.Sampler(1), a.Sampler(2), 1024, 4, 0, Options{}); err == nil {
		t.Fatal("eps=0 accepted")
	}
	// Options.Scale shrinks every stage's budget.
	full, err := TestCloseness(a.Sampler(1), a.Sampler(2), 1024, 4, 0.3, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	half, err := TestCloseness(a.Sampler(1), a.Sampler(2), 1024, 4, 0.3, Options{Seed: 3, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(half.SamplesUsed) / float64(full.SamplesUsed); r < 0.4 || r > 0.6 {
		t.Fatalf("Scale 0.5 used %d samples vs %d at Scale 1 (ratio %.2f, want ~0.5)", half.SamplesUsed, full.SamplesUsed, r)
	}
}
