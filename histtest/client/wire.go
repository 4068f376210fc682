// Package client is the typed Go client of the histd serving layer
// (cmd/histd): the JSON wire types of the /v1 API and an http.Client
// wrapper with retry/backoff on admission-control pushback (429) and
// drain (503).
//
// The wire schema is shared with the server (internal/serve marshals
// exactly these structs), so a round trip through the service carries
// the full tester verdict — including the stage-level Trace — without
// loss: a served run is bit-identical to a direct core.Test call with
// the same request parameters.
package client

// HistogramSpec is the wire form of a piecewise-constant distribution
// over [0, n): interior cut points (ascending, in (0, n)) and one mass
// per bucket (len(Masses) == len(Cuts)+1; masses are normalized
// server-side). It matches the JSON sketch format of
// histtest.Histogram.MarshalJSON.
type HistogramSpec struct {
	N      int       `json:"n"`
	Cuts   []int     `json:"cuts,omitempty"`
	Masses []float64 `json:"masses"`
}

// TestRequest asks the server to run the k-histogram tester once.
// Exactly one sample source must be set: Samples (a recorded dataset,
// replayed), Spec (an inline distribution the server samples from), or
// Sampler (the ID of a spec previously registered via RegisterSampler).
type TestRequest struct {
	// Samples is a recorded dataset of values in [0, N). The server
	// replays it; if the tester's budget exceeds the dataset the request
	// fails with ErrCodeNeedMoreSamples.
	Samples []int `json:"samples,omitempty"`
	// Spec is an inline distribution to draw i.i.d. samples from.
	Spec *HistogramSpec `json:"spec,omitempty"`
	// Sampler references a registered spec by ID.
	Sampler string `json:"sampler,omitempty"`
	// SamplerSeed seeds the sampler's draw stream (Spec/Sampler sources;
	// 0 means 1). Together with Seed it makes a served run reproducible.
	SamplerSeed uint64 `json:"sampler_seed,omitempty"`

	// N is the domain size. Required with Samples; optional otherwise
	// (it must match the spec's domain when both are set).
	N int `json:"n,omitempty"`
	// K is the histogram class parameter.
	K int `json:"k"`
	// Eps is the distance parameter ε in (0, 1].
	Eps float64 `json:"eps"`

	// Seed seeds the tester's internal randomness (0 means 1), matching
	// histtest.Options.Seed semantics.
	Seed uint64 `json:"seed,omitempty"`
	// Scale multiplies every stage's sample budget (0 means 1).
	Scale float64 `json:"scale,omitempty"`
	// Paper switches to the literal paper constants.
	Paper bool `json:"paper,omitempty"`
	// CountStrategy selects how Poissonized count vectors are
	// synthesized: "" or "exact" draws every sample individually (the
	// default, bit-identical to historical runs), "closed-form"
	// synthesizes counts from the sampler's run structure in
	// O(k + occupied) RNG calls per batch. Spec/Sampler sources only;
	// replay datasets always use the exact path (samples are data, not
	// randomness), so closed-form silently falls back there.
	CountStrategy string `json:"count_strategy,omitempty"`
	// Engine selects the tester implementation: "" or "adk" runs the
	// source paper's Algorithm 1, "cdkl22" the CDKL'22 near-optimal
	// tester (sieve-free; roughly an order of magnitude fewer samples
	// at equal operating characteristics — see README). Unknown names
	// are rejected with 400 at admission time, never silently replaced
	// by the default.
	Engine string `json:"engine,omitempty"`
	// TimeoutMS caps the request's server-side wall clock; on expiry the
	// run is cancelled at the tester's next cancellation point. 0 means
	// the server default; the server clamps it to its maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Trace is the wire form of the tester's core.Trace: stage-level sample
// accounting, sieve activity, and the deciding statistics.
type Trace struct {
	N              int     `json:"n"`
	K              int     `json:"k"`
	B              float64 `json:"b"`
	SieveRoundsRun int     `json:"sieve_rounds_run"`

	PartitionSamples int64 `json:"partition_samples"`
	LearnSamples     int64 `json:"learn_samples"`
	SieveSamples     int64 `json:"sieve_samples"`
	TestSamples      int64 `json:"test_samples"`

	RemovedHeavy    int     `json:"removed_heavy"`
	HeavySingletons int     `json:"heavy_singletons"`
	RemovedRounds   int     `json:"removed_rounds"`
	RemovedMass     float64 `json:"removed_mass"`

	CheckRelaxed float64 `json:"check_relaxed"`
	FinalZ       float64 `json:"final_z"`
	FinalThresh  float64 `json:"final_thresh"`

	RejectStage  string `json:"reject_stage,omitempty"`
	RejectReason string `json:"reject_reason,omitempty"`
}

// TestResult is the verdict of one served tester run.
type TestResult struct {
	// Index identifies the sub-request within a streamed batch (0 for
	// single-request calls). Batch results arrive in completion order.
	Index int `json:"index"`
	// Accept is the tester's decision.
	Accept bool `json:"accept"`
	// SamplesUsed is the total number of oracle draws consumed.
	SamplesUsed int64 `json:"samples_used"`
	// Stage and Detail explain a rejection ("" on accept).
	Stage  string `json:"stage,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Trace is the full stage-level trace (nil on the trivial k >= n
	// accept path, which runs no stages).
	Trace *Trace `json:"trace,omitempty"`
	// Closeness carries the full two-sample verdict when the run was a
	// /v1/closeness request (nil for ordinary one-sample tests).
	Closeness *ClosenessVerdict `json:"closeness,omitempty"`
	// ElapsedMS is the server-side wall clock of the run in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Err reports a per-item failure inside a streamed batch (the HTTP
	// status is already committed when a batch item fails). Empty on
	// success; Code classifies it.
	Err  string `json:"err,omitempty"`
	Code string `json:"code,omitempty"`
}

// Error codes returned in ErrorResponse.Code / TestResult.Code.
const (
	// ErrCodeBadRequest marks a malformed or invalid request.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeNeedMoreSamples marks a replay dataset smaller than the
	// tester's budget.
	ErrCodeNeedMoreSamples = "need_more_samples"
	// ErrCodeOverloaded marks admission-control pushback: the queue is
	// full. Retry after the Retry-After hint.
	ErrCodeOverloaded = "overloaded"
	// ErrCodeDraining marks a server that is shutting down.
	ErrCodeDraining = "draining"
	// ErrCodeCanceled marks a run cancelled by the client or cut off by
	// its deadline.
	ErrCodeCanceled = "canceled"
	// ErrCodeUnknownSampler marks a Sampler ID that is not registered.
	ErrCodeUnknownSampler = "unknown_sampler"
	// ErrCodeNotFound marks a stream ID that is not registered (it may
	// have been TTL-evicted).
	ErrCodeNotFound = "not_found"
	// ErrCodeInternal marks any other server-side failure.
	ErrCodeInternal = "internal"
)

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// BatchRequest is the body of /v1/test/stream: sub-requests run
// concurrently on the server's worker pool and results stream back as
// JSON lines in completion order, each tagged with its Index. At most
// the server's queue depth (histd -queue) sub-requests fit one batch.
//
// No request type carries a fan-out width: the server derives each
// run's within-run width from its pool size, and a body that still
// sends "workers" is rejected as an unknown field (400).
type BatchRequest struct {
	Requests []TestRequest `json:"requests"`
}

// RegisterResponse is the body returned by /v1/samplers.
type RegisterResponse struct {
	// ID names the registered spec in TestRequest.Sampler.
	ID string `json:"id"`
	// Buckets is the registered distribution's piece count.
	Buckets int `json:"buckets"`
	// N is the registered distribution's domain size.
	N int `json:"n"`
}
