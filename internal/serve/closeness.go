package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/histtest/client"
	"repro/internal/closeness"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// Two-sample closeness serving: POST /v1/closeness resolves a pair of
// sample sources — any mix of recorded datasets, inline specs,
// registered samplers, and live stream windows — into two oracles and
// runs the DKN'17 tester (internal/closeness) on the ordinary worker
// pool. Resolution happens at admission like resolve: malformed pairs
// are 4xx before they cost a queue slot, and everything derived here is
// deterministic, so a served verdict is bit-identical to a direct
// closeness.TestTwoSample call with the same inputs (pinned by the e2e
// suite).

// Side-B salts. The two sides of one request derive their randomness
// from the SAME request seeds; without a salt, two sides naming the same
// spec (or the request's tester seed feeding both stream shuffles) would
// draw in lockstep — twin streams that correlate the very counts the χ²
// statistic compares. Side A keeps the one-sample derivations (sampler
// seed as-is, streamShuffleSalt for stream windows) so a one-sided
// request matches /v1/test conventions; side B XORs these constants in.
// Both are part of the wire contract, as streamShuffleSalt is: a direct
// run must reproduce them to match a served verdict bit-for-bit.
const (
	closenessSamplerSaltB = 0x6c07965ad6f54d21
	closenessShuffleSaltB = 0x3c79ac492ba7b653
)

// closenessRun is the two-sample extension of a runSpec: side B's oracle
// plus the tester config. runSpec.o is side A.
type closenessRun struct {
	oy  oracle.Oracle
	cfg closeness.Config
	// eventsA/eventsB are snapshotted stream-window sizes (0 for
	// non-stream sides); datasetLenA/B the replay dataset sizes —
	// error-reporting context, mirroring runSpec.datasetLen.
	eventsA, eventsB         int64
	datasetLenA, datasetLenB int
}

// Workloads names the request shapes the serving layer can run — the
// serve-side analogue of core.Engines(). The conformance-list gate
// (make conformance-list) diffs this registry against the Makefile and
// CI defaults, so wiring a new workload here without extending the
// conformance tier fails the PR loudly.
func Workloads() []string { return []string{"histogram", "closeness"} }

// resolveCloseness turns a wire closeness request into a runSpec whose
// close field carries side B, validating everything the tester would
// reject plus the serving limits.
func (s *Server) resolveCloseness(req *client.ClosenessRequest) (*runSpec, error) {
	cs, err := checkParams(req.K, req.Eps, req.Scale, req.CountStrategy)
	if err != nil {
		return nil, err
	}
	if req.Reps < 0 {
		return nil, badReqf("reps = %d must not be negative", req.Reps)
	}
	seed := max(req.Seed, 1) // histtest.Options.Seed semantics
	samplerSeed := max(req.SamplerSeed, 1)
	cr := &closenessRun{}
	sp := &runSpec{k: req.K, eps: req.Eps, seed: seed, close: cr}

	oa, infoA, err := s.closenessSide("a", &req.A, req.N, samplerSeed, seed^streamShuffleSalt)
	if err != nil {
		return nil, err
	}
	ob, infoB, err := s.closenessSide("b", &req.B, req.N, samplerSeed^closenessSamplerSaltB, seed^closenessShuffleSaltB)
	if err != nil {
		return nil, err
	}
	if oa.N() != ob.N() {
		return nil, badReqf("sides over different domains (%d vs %d)", oa.N(), ob.N())
	}
	sp.o, sp.datasetLen = oa, infoA.datasetLen
	cr.oy = ob
	cr.eventsA, cr.eventsB = infoA.snap.Events, infoB.snap.Events
	cr.datasetLenA, cr.datasetLenB = infoA.datasetLen, infoB.datasetLen

	cfg := closeness.DefaultConfig()
	if req.Reps != 0 {
		cfg.Reps = req.Reps
	}
	if req.Scale > 0 && req.Scale != 1 {
		cfg = cfg.Scale(req.Scale)
	}
	cfg.CountStrategy = cs
	if cfg.Workers, cfg.MaxSamples, sp.timeout, err = s.limits(cfg.MaxSamples, req.TimeoutMS); err != nil {
		return nil, err
	}
	cr.cfg = cfg
	return sp, nil
}

// closenessSide resolves one side through source. Unlike a stream test,
// which reports an empty window as a run that needs more samples, a
// comparison against an empty window is refused at admission.
func (s *Server) closenessSide(label string, side *client.ClosenessSide, n int, samplerSeed, shuffleSeed uint64) (oracle.Oracle, sourceInfo, error) {
	o, info, err := s.source(label, side, n, samplerSeed, shuffleSeed)
	if err == nil && side.Stream != "" && info.snap.Events == 0 {
		err = &badRequest{code: client.ErrCodeNeedMoreSamples, msg: fmt.Sprintf("side %s: stream %q's window is empty — ingest events before comparing", label, side.Stream)}
	}
	return o, info, err
}

// runCloseness executes a resolved two-sample run on the worker's pooled
// Tester, mapping every outcome to a wire TestResult the job channel can
// carry. A replay side running dry panics with oracle.ErrReplayExhausted,
// translated to ErrCodeNeedMoreSamples exactly as runOne does for
// one-sample replays.
func runCloseness(ctx context.Context, ct *closeness.Tester, sp *runSpec, index int) (res client.TestResult) {
	cr := sp.close
	defer func() {
		if r := recover(); r != nil {
			if r == oracle.ErrReplayExhausted {
				res = errorResult(index, client.ErrCodeNeedMoreSamples,
					fmt.Errorf("a side's recorded window (%d/%d samples) exhausted after %d+%d draws; ingest more data or lower scale",
						cr.datasetLenA, cr.datasetLenB, sp.o.Samples(), cr.oy.Samples()))
				return
			}
			res = errorResult(index, client.ErrCodeInternal, fmt.Errorf("panic: %v", r))
		}
	}()

	out, err := ct.Run(ctx, sp.o, cr.oy, rng.New(sp.seed), sp.k, sp.eps, cr.cfg)
	if err != nil {
		return runErrorResult(index, err)
	}
	return client.TestResult{
		Index:       index,
		Accept:      out.Accept,
		SamplesUsed: out.SamplesX + out.SamplesY,
		Closeness: &client.ClosenessVerdict{
			Accept:           out.Accept,
			N:                out.N,
			Intervals:        out.Intervals,
			B:                out.B,
			M:                out.M,
			Reps:             out.Reps,
			Accepts:          out.Accepts,
			Z:                out.Z,
			Threshold:        out.Threshold,
			PartitionSamples: out.PartitionSamples,
			TestSamples:      out.TestSamples,
			SamplesA:         out.SamplesX,
			SamplesB:         out.SamplesY,
		},
	}
}

// handleCloseness serves POST /v1/closeness: resolve the pair, admit,
// wait for the worker, reply.
func (s *Server) handleCloseness(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	var req client.ClosenessRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.failRequest(w, err)
		return
	}
	spec, err := s.resolveCloseness(&req)
	if err != nil {
		s.failRequest(w, err)
		return
	}
	j, err := s.submit(r.Context(), spec, 0)
	if err != nil {
		s.writeError(w, admitErr(err), err)
		return
	}
	res := await(j)
	// Stream sides recorded in the request keep their freshness: touch
	// already happened at snapshot; the verdict is not folded into the
	// streams' last-test records (those describe one-sample self-tests).
	if res.Err != "" {
		s.writeError(w, res.Code, errors.New(res.Err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(client.ClosenessResponse{
		ClosenessVerdict: *res.Closeness,
		EventsA:          spec.close.eventsA,
		EventsB:          spec.close.eventsB,
		ElapsedMS:        res.ElapsedMS,
	})
}
