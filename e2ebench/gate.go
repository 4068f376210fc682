package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/histtest/client"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stream"
)

// The served-vs-direct gate. Every request class has at least one
// request whose verdict is recomputed in-process with the same inputs
// and seeds; the served verdict must match it bit for bit (accept,
// samples_used and the full trace, or the full closeness verdict).
// histd's resolution is deterministic, so any difference is a serving
// bug, and the run is reported incorrect.

// Seed derivations the wire contract fixes (see internal/serve): side B
// of a closeness request salts its sampler seed, and a stream test
// shuffles its snapshot with the test seed XOR the stream salt.
const (
	closenessSamplerSaltB = 0x6c07965ad6f54d21
	streamShuffleSalt     = 0xa5a5f00d9e3779b9
)

// gateCase recomputes one request's verdict in-process. direct returns
// the wire value the server should have answered (a client.TestResult
// or a client.ClosenessVerdict) with ElapsedMS zero.
type gateCase struct {
	direct func() (any, error)
}

// servedCfg is the one-sample config histd runs: PracticalConfig,
// serial sieve (requests do not ask for fan-out), the named engine and
// count strategy.
func servedCfg(engine, cs string) (core.Config, error) {
	cfg := core.PracticalConfig()
	cfg.Workers = 1
	cfg.Engine = engine
	s, err := oracle.ParseCountStrategy(cs)
	if err != nil {
		return cfg, err
	}
	cfg.CountStrategy = s
	return cfg, nil
}

// directTest runs core.Arena.TestContext exactly as histd's worker does
// and renders the result as the server's wire TestResult.
func directTest(o oracle.Oracle, seed uint64, k int, eps float64, engine, cs string) (client.TestResult, error) {
	cfg, err := servedCfg(engine, cs)
	if err != nil {
		return client.TestResult{}, err
	}
	res, err := core.NewArena().TestContext(context.Background(), o, rng.New(seed), k, eps, cfg)
	if err != nil {
		return client.TestResult{}, err
	}
	tr := res.Trace
	return client.TestResult{
		Accept:      res.Accept,
		SamplesUsed: o.Samples(),
		Stage:       tr.RejectStage,
		Detail:      tr.RejectReason,
		Trace: &client.Trace{
			N: tr.N, K: tr.K, B: tr.B, SieveRoundsRun: tr.SieveRoundsRun,
			PartitionSamples: tr.PartitionSamples, LearnSamples: tr.LearnSamples,
			SieveSamples: tr.SieveSamples, TestSamples: tr.TestSamples,
			RemovedHeavy: tr.RemovedHeavy, HeavySingletons: tr.HeavySingletons,
			RemovedRounds: tr.RemovedRounds, RemovedMass: tr.RemovedMass,
			CheckRelaxed: tr.CheckRelaxed, FinalZ: tr.FinalZ, FinalThresh: tr.FinalThresh,
			RejectStage: tr.RejectStage, RejectReason: tr.RejectReason,
		},
	}, nil
}

// oneSampleGate replays a spec- or sampler-sourced /v1/test request.
func oneSampleGate(spec *client.HistogramSpec, seed, samplerSeed uint64, k int, eps float64, engine, cs string) *gateCase {
	return &gateCase{direct: func() (any, error) {
		proto, err := samplerOf(spec)
		if err != nil {
			return nil, err
		}
		return directTest(proto.Fork(rng.New(samplerSeed)), seed, k, eps, engine, cs)
	}}
}

// closenessGate replays a /v1/closeness request with
// closeness.TestTwoSample. samplers maps registered IDs to the
// prototypes they were registered from.
func closenessGate(req client.ClosenessRequest, samplers map[string]*oracle.Sampler) *gateCase {
	return &gateCase{direct: func() (any, error) {
		side := func(s client.ClosenessSide, samplerSeed uint64) (oracle.Oracle, error) {
			switch {
			case len(s.Samples) > 0:
				return oracle.NewReplay(req.N, s.Samples)
			case s.Spec != nil:
				proto, err := samplerOf(s.Spec)
				if err != nil {
					return nil, err
				}
				return proto.Fork(rng.New(samplerSeed)), nil
			case samplers[s.Sampler] != nil:
				return samplers[s.Sampler].Fork(rng.New(samplerSeed)), nil
			}
			return nil, fmt.Errorf("gate: unsupported closeness side")
		}
		oa, err := side(req.A, req.SamplerSeed)
		if err != nil {
			return nil, err
		}
		ob, err := side(req.B, req.SamplerSeed^closenessSamplerSaltB)
		if err != nil {
			return nil, err
		}
		cfg := closeness.DefaultConfig() // histd's default reps (5)
		cfg.Workers = 1
		out, err := closeness.TestTwoSample(context.Background(), oa, ob, rng.New(req.Seed), req.K, req.Eps, cfg)
		if err != nil {
			return nil, err
		}
		return client.ClosenessVerdict{
			Accept: out.Accept, N: out.N, Intervals: out.Intervals, B: out.B, M: out.M,
			Reps: out.Reps, Accepts: out.Accepts, Z: out.Z, Threshold: out.Threshold,
			PartitionSamples: out.PartitionSamples, TestSamples: out.TestSamples,
			SamplesA: out.SamplesX, SamplesB: out.SamplesY,
		}, nil
	}}
}

// foldEvents tallies events the way a histd stream does: a fresh
// accumulator over [0, n), snapshotted.
func foldEvents(n int, events []int32) (*oracle.Counts, error) {
	acc, err := stream.NewAccumulator(stream.AccumConfig{N: n})
	if err != nil {
		return nil, err
	}
	acc.Ingest(events)
	counts, _ := acc.Snapshot()
	return counts, nil
}

// frozenGate replays a test of the frozen stream from its folded counts:
// the salted snapshot shuffle, then the served one-sample config with
// the default engine.
func frozenGate(counts *oracle.Counts, seed uint64, k int, eps float64) *gateCase {
	return &gateCase{direct: func() (any, error) {
		o := oracle.NewCountsReplay(counts, rng.New(seed^streamShuffleSalt))
		return directTest(o, seed, k, eps, "", "")
	}}
}

// servedVerdict extracts the comparable part of a served 2xx body.
func servedVerdict(kind reqKind, body []byte) (any, error) {
	switch kind {
	case kindClose:
		var r client.ClosenessResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return r.ClosenessVerdict, nil
	case kindRetest:
		var r client.StreamTestResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		r.TestResult.ElapsedMS = 0
		return r.TestResult, nil
	default:
		var r client.TestResult
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		r.ElapsedMS = 0
		return r, nil
	}
}

// compareVerdict compares one served 2xx body with the direct replay's
// wire value.
func compareVerdict(kind reqKind, body []byte, direct any) error {
	served, err := servedVerdict(kind, body)
	if err != nil {
		return fmt.Errorf("decoding served verdict: %w", err)
	}
	a, b := mustJSON(served), mustJSON(direct)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("served verdict differs from direct call:\n  served %s\n  direct %s", a, b)
	}
	return nil
}
