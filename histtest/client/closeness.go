package client

import "context"

// ClosenessSide names one sample source of a two-sample closeness
// request. Exactly one field must be set; the four kinds may be mixed
// freely across the two sides (e.g. a registered sampler vs. a live
// stream window — the canary-vs-baseline shape).
type ClosenessSide struct {
	// Samples is a recorded dataset of values in [0, N), replayed
	// without replacement. If the tester's budget exceeds the dataset
	// the request fails with ErrCodeNeedMoreSamples.
	Samples []int `json:"samples,omitempty"`
	// Spec is an inline distribution the server samples from.
	Spec *HistogramSpec `json:"spec,omitempty"`
	// Sampler references a spec previously registered via /v1/samplers.
	Sampler string `json:"sampler,omitempty"`
	// Stream references a live ingestion stream by ID; its current
	// window is snapshotted at admission. An empty window fails with
	// ErrCodeNeedMoreSamples (there is nothing to compare yet).
	Stream string `json:"stream,omitempty"`
}

// ClosenessRequest asks the server to decide whether two sample sources
// serve the same distribution or distributions ε-far in total variation,
// under the promise both are (close to) k-histograms (the DKN'17
// two-sample tester — see DESIGN.md "Two-sample closeness").
type ClosenessRequest struct {
	// A and B are the two sample sources.
	A ClosenessSide `json:"a"`
	B ClosenessSide `json:"b"`

	// N is the common domain size. Required when either side is a
	// Samples dataset; optional otherwise (it must match every source's
	// domain when set).
	N int `json:"n,omitempty"`
	// K is the histogram class parameter of the promise.
	K int `json:"k"`
	// Eps is the distance parameter ε in (0, 1].
	Eps float64 `json:"eps"`

	// Seed seeds the tester's internal randomness (0 means 1). Together
	// with SamplerSeed it makes a served verdict reproducible; the
	// per-side derivations (side B's sampler and shuffle streams are
	// salted so twin sources don't draw in lockstep) are pinned by the
	// serve layer's bit-identity tests.
	Seed uint64 `json:"seed,omitempty"`
	// SamplerSeed seeds the Spec/Sampler draw streams (0 means 1).
	SamplerSeed uint64 `json:"sampler_seed,omitempty"`
	// Scale multiplies every stage's sample budget (0 means 1).
	Scale float64 `json:"scale,omitempty"`
	// CountStrategy selects Poissonized count synthesis, as in
	// TestRequest: "" or "exact", or "closed-form" (sampler-backed
	// sides only; dataset and stream sides always use the exact path).
	CountStrategy string `json:"count_strategy,omitempty"`
	// Reps overrides the majority-amplification replicate count
	// (0 means the server default, 5).
	Reps int `json:"reps,omitempty"`
	// TimeoutMS caps the request's server-side wall clock, as in
	// TestRequest.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ClosenessVerdict is the wire form of the two-sample tester's result
// (closeness.TwoSampleResult).
type ClosenessVerdict struct {
	// Accept means the samples are consistent with equal distributions.
	Accept bool `json:"accept"`
	// N is the raw domain size; Intervals the reduced domain size K
	// after the common-refinement flattening (== N when the reduction
	// did not apply).
	N         int `json:"n"`
	Intervals int `json:"intervals"`
	// B is the reduction parameter (0 when the reduction did not apply);
	// M the per-side Poisson mean of each replicate batch.
	B float64 `json:"b"`
	M float64 `json:"m"`
	// Reps and Accepts give the majority tally; Z and Threshold the
	// median replicate's statistic and cutoff.
	Reps      int     `json:"reps"`
	Accepts   int     `json:"accepts"`
	Z         float64 `json:"z"`
	Threshold float64 `json:"threshold"`
	// PartitionSamples and TestSamples split the total draw count by
	// stage; SamplesA and SamplesB split it by side.
	PartitionSamples int64 `json:"partition_samples"`
	TestSamples      int64 `json:"test_samples"`
	SamplesA         int64 `json:"samples_a"`
	SamplesB         int64 `json:"samples_b"`
}

// ClosenessResponse is the body of a successful POST /v1/closeness.
type ClosenessResponse struct {
	ClosenessVerdict
	// EventsA/EventsB report the snapshotted window sizes of stream
	// sides (0 for non-stream sides).
	EventsA int64 `json:"events_a,omitempty"`
	EventsB int64 `json:"events_b,omitempty"`
	// ElapsedMS is the server-side wall clock of the run.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Closeness runs one two-sample closeness request and returns its
// verdict, under the client's usual retry policy for admission pushback.
func (c *Client) Closeness(ctx context.Context, req ClosenessRequest) (*ClosenessResponse, error) {
	var res ClosenessResponse
	if err := c.postRetry(ctx, "/v1/closeness", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
