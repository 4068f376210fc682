package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/histtest/client"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stream"
)

// runSpec is a TestRequest resolved into the concrete inputs of one
// core.TestContext call. Resolution happens on the HTTP goroutine at
// admission time, so malformed requests are rejected with 4xx before
// they cost a queue slot; everything here is deterministic, making a
// served run bit-identical to a direct call with the same inputs.
type runSpec struct {
	o          oracle.Oracle
	k          int
	eps        float64
	seed       uint64
	cfg        core.Config
	timeout    time.Duration
	datasetLen int // replay requests: the dataset size (error reporting)

	// close, when non-nil, marks a two-sample closeness run: o is side A
	// and close carries side B plus the closeness config (cfg above is
	// unused then). See closeness.go.
	close *closenessRun
}

// badRequest is a resolution failure carrying its wire error code.
type badRequest struct {
	code string
	msg  string
}

func (e *badRequest) Error() string { return e.msg }

func badReqf(format string, args ...any) error {
	return &badRequest{code: client.ErrCodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

// resolve turns a /v1/test request into a runSpec, validating
// everything the core tester would reject plus the serving limits.
func (s *Server) resolve(req *client.TestRequest) (*runSpec, error) {
	cs, err := checkParams(req.K, req.Eps, req.Scale, req.CountStrategy)
	if err != nil {
		return nil, err
	}
	// Engine names resolve here at admission time so an unknown engine
	// is a 400 before it costs a queue slot — and never a silent
	// fallback to the default (core.TestContext would also refuse it,
	// but only after admission).
	if _, err := core.EngineFor(req.Engine); err != nil {
		return nil, badReqf("%v", err)
	}
	// A one-sample request has no stream field; /v1/streams/{id}/test is
	// its stream form.
	src := client.ClosenessSide{Samples: req.Samples, Spec: req.Spec, Sampler: req.Sampler}
	sp := &runSpec{k: req.K, eps: req.Eps, seed: max(req.Seed, 1)} // histtest.Options.Seed semantics
	var info sourceInfo
	if sp.o, info, err = s.source("", &src, req.N, max(req.SamplerSeed, 1), 0); err != nil {
		return nil, err
	}
	sp.datasetLen = info.datasetLen

	cfg := core.PracticalConfig()
	if req.Paper {
		cfg = core.PaperConfig()
	}
	if req.Scale > 0 && req.Scale != 1 {
		cfg = cfg.Scale(req.Scale)
	}
	// Replay oracles lack the CountDrawer capability, so a closed-form
	// request over a dataset falls back to the exact path inside the
	// tester (oracle.EffectiveStrategy) — no error, same verdict law.
	cfg.CountStrategy = cs
	cfg.Engine = req.Engine
	if cfg.Workers, cfg.MaxSamples, sp.timeout, err = s.limits(cfg.MaxSamples, req.TimeoutMS); err != nil {
		return nil, err
	}
	sp.cfg = cfg
	return sp, nil
}

// checkParams validates the tester parameters /v1/test and /v1/closeness
// share and parses the count strategy.
func checkParams(k int, eps, scale float64, countStrategy string) (oracle.CountStrategy, error) {
	if k < 1 {
		return 0, badReqf("k = %d must be positive", k)
	}
	if eps <= 0 || eps > 1 {
		return 0, badReqf("eps = %v must be in (0, 1]", eps)
	}
	if scale < 0 {
		return 0, badReqf("scale = %v must not be negative", scale)
	}
	cs, err := oracle.ParseCountStrategy(countStrategy)
	if err != nil {
		return 0, badReqf("%v", err)
	}
	return cs, nil
}

// sourceInfo is the bookkeeping source extracts beside the oracle.
type sourceInfo struct {
	// datasetLen is the recorded sample count behind a replay oracle (a
	// dataset, or a stream window's event count); error-reporting
	// context for replay exhaustion. 0 for spec and sampler sources.
	datasetLen int
	// snap describes a stream source's snapshotted window.
	snap stream.SnapshotStats
}

// source turns one sample source — exactly one of samples, spec,
// sampler, stream — into the oracle a run draws from. It is the only
// place the serving layer builds oracles: /v1/test, both sides of
// /v1/closeness, and stream tests (wire and janitor) all come here.
// label names the side in error messages ("" for one-sided requests);
// n, when non-zero, must match the source's domain. samplerSeed seeds
// spec and sampler forks; shuffleSeed seeds a stream window's replay
// shuffle. Both already carry any side salt.
func (s *Server) source(label string, src *client.ClosenessSide, n int, samplerSeed, shuffleSeed uint64) (oracle.Oracle, sourceInfo, error) {
	var info sourceInfo
	prefix, kinds := "", "samples, spec, sampler"
	if label != "" {
		prefix, kinds = "side "+label+": ", kinds+", stream"
	}
	sources := 0
	for _, set := range []bool{len(src.Samples) > 0, src.Spec != nil, src.Sampler != "", src.Stream != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, info, badReqf("%sexactly one of %s must be set (got %d)", prefix, kinds, sources)
	}
	// domain checks a source's domain against the request's n.
	domain := func(what string, got int) error {
		if n != 0 && n != got {
			return badReqf("%sn = %d does not match %s's domain %d", prefix, n, what, got)
		}
		return nil
	}
	switch {
	case len(src.Samples) > 0:
		if n < 1 {
			return nil, info, badReqf("%sn = %d must be positive with a samples dataset", prefix, n)
		}
		rep, err := oracle.NewReplay(n, src.Samples)
		if err != nil {
			return nil, info, badReqf("%sinvalid dataset: %v", prefix, err)
		}
		info.datasetLen = len(src.Samples)
		return rep, info, nil
	case src.Spec != nil:
		proto, err := buildSampler(src.Spec)
		if err != nil {
			return nil, info, fmt.Errorf("%s%w", prefix, err)
		}
		if err := domain("the spec", proto.N()); err != nil {
			return nil, info, err
		}
		return proto.Fork(rng.New(samplerSeed)), info, nil
	case src.Sampler != "":
		proto, ok := s.samplers.get(src.Sampler)
		if !ok {
			return nil, info, &badRequest{code: client.ErrCodeUnknownSampler, msg: fmt.Sprintf("%ssampler %q is not registered", prefix, src.Sampler)}
		}
		if err := domain(fmt.Sprintf("sampler %q", src.Sampler), proto.N()); err != nil {
			return nil, info, err
		}
		return proto.Fork(rng.New(samplerSeed)), info, nil
	default:
		st, ok := s.streams.Get(src.Stream)
		if !ok {
			return nil, info, &badRequest{code: client.ErrCodeNotFound, msg: fmt.Sprintf("%sstream %q is not registered", prefix, src.Stream)}
		}
		if err := domain(fmt.Sprintf("stream %q", src.Stream), st.Acc.N()); err != nil {
			return nil, info, err
		}
		o, info := streamReplay(st, shuffleSeed)
		return o, info, nil
	}
}

// streamReplay is source's stream branch for a stream already looked up:
// it snapshots the window into a pooled Counts, released before
// returning — NewCountsReplay copies what it needs.
func streamReplay(st *stream.Stream, shuffleSeed uint64) (oracle.Oracle, sourceInfo) {
	counts, snap := st.Acc.Snapshot()
	o := oracle.NewCountsReplay(counts, rng.New(shuffleSeed))
	counts.Release()
	return o, sourceInfo{datasetLen: int(snap.Events), snap: snap}
}

// limits applies the serving limits every run gets, whatever its
// endpoint. The within-run fan-out it returns is the server's derived
// width (Server.fanout); the width never changes a verdict, so served
// runs still match direct ones. maxSamples is the tester's own budget
// guard, replaced by MaxSamplesPerRun when the deployment sets one. timeoutMS
// is the requested deadline: 0 takes DefaultTimeout, anything else is
// clamped to MaxTimeout BEFORE the conversion to a Duration, which
// overflows (and would wrap negative, i.e. to "no deadline") for
// timeoutMS >= 2⁶³/10⁶.
func (s *Server) limits(maxSamples, timeoutMS int64) (int, int64, time.Duration, error) {
	if timeoutMS < 0 {
		return 0, 0, 0, badReqf("timeout_ms = %d must not be negative", timeoutMS)
	}
	if s.cfg.MaxSamplesPerRun > 0 {
		maxSamples = s.cfg.MaxSamplesPerRun
	}
	var timeout time.Duration
	switch {
	case timeoutMS == 0:
		timeout = max(s.cfg.DefaultTimeout, 0)
	case timeoutMS > int64(s.cfg.MaxTimeout/time.Millisecond):
		timeout = s.cfg.MaxTimeout
	default:
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return s.fanout, maxSamples, timeout, nil
}

// buildSampler validates a wire spec and builds the alias-table sampler
// prototype over it. The prototype's RNG is never drawn from; every run
// forks it with the request's sampler seed, so concurrent requests share
// the immutable alias tables (the same prototype-sharing scheme as
// histtest.Histogram.Sampler).
func buildSampler(spec *client.HistogramSpec) (*oracle.Sampler, error) {
	if spec.N < 1 {
		return nil, badReqf("spec: domain size %d must be positive", spec.N)
	}
	for i, c := range spec.Cuts {
		if c <= 0 || c >= spec.N || (i > 0 && c <= spec.Cuts[i-1]) {
			return nil, badReqf("spec: cuts must be ascending interior points of (0, %d)", spec.N)
		}
	}
	p := intervals.FromBoundaries(spec.N, spec.Cuts)
	if p.Count() != len(spec.Masses) {
		return nil, badReqf("spec: %d masses for %d buckets", len(spec.Masses), p.Count())
	}
	total := 0.0
	for _, m := range spec.Masses {
		if m < 0 {
			return nil, badReqf("spec: negative bucket mass %v", m)
		}
		total += m
	}
	if total <= 0 {
		return nil, badReqf("spec: zero total mass")
	}
	norm := make([]float64, len(spec.Masses))
	for i, m := range spec.Masses {
		norm[i] = m / total
	}
	pc, err := dist.FromWeights(p, norm)
	if err != nil {
		return nil, badReqf("spec: %v", err)
	}
	return oracle.NewSampler(pc, rng.New(0)), nil
}

// samplerTable is the registered-sampler registry: spec → immutable
// alias-table prototype, forked per request.
type samplerTable struct {
	mu    sync.Mutex
	next  int
	limit int
	byID  map[string]*oracle.Sampler
}

func (t *samplerTable) init(limit int) {
	t.byID = make(map[string]*oracle.Sampler)
	t.limit = limit
}

// register stores a validated prototype and returns its ID.
func (t *samplerTable) register(proto *oracle.Sampler) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.byID) >= t.limit {
		return "", badReqf("sampler table full (%d registered)", len(t.byID))
	}
	t.next++
	id := fmt.Sprintf("s%d", t.next)
	t.byID[id] = proto
	return id, nil
}

func (t *samplerTable) get(id string) (*oracle.Sampler, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.byID[id]
	return p, ok
}
