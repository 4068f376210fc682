package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/histtest/client"
	"repro/internal/serve"
)

// FuzzClosenessDecoder fuzzes the /v1/closeness request surface with raw
// JSON bodies: whatever arrives — malformed JSON, unknown fields,
// contradictory source pairs, one-registered-one-unknown samplers,
// references to an empty stream window — the server must answer with a
// well-formed response and never panic or 5xx. Runs that are admitted
// use k >= n so the tester's degenerate full-domain path decides on a
// handful of draws, keeping iterations cheap.
func FuzzClosenessDecoder(f *testing.F) {
	s := serve.New(serve.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	f.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	// One registered sampler and one empty stream, so fuzzed bodies can
	// reach the unknown-vs-registered and empty-window branches.
	c := client.New(hs.URL)
	regd, err := c.RegisterSampler(f.Context(), client.HistogramSpec{N: 16, Masses: []float64{1}})
	if err != nil {
		f.Fatalf("registering sampler: %v", err)
	}
	stInfo, err := c.CreateStream(f.Context(), client.StreamSpec{N: 16, K: 16, Eps: 0.5})
	if err != nil {
		f.Fatalf("creating stream: %v", err)
	}

	spec := `{"n":16,"masses":[1]}`
	seeds := []string{
		``,
		`{}`,
		`not json`,
		`{"a":{},"b":{},"k":16,"eps":0.5}`,
		`{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":16,"eps":0.5}`,
		`{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":0,"eps":9}`,
		`{"a":{"spec":` + spec + `,"sampler":"s1"},"b":{"spec":` + spec + `},"k":16,"eps":0.5}`,
		`{"a":{"sampler":"` + regd.ID + `"},"b":{"sampler":"ghost"},"k":16,"eps":0.5}`,
		`{"a":{"sampler":"` + regd.ID + `"},"b":{"stream":"` + stInfo.ID + `"},"k":16,"eps":0.5}`,
		`{"a":{"stream":"` + stInfo.ID + `"},"b":{"stream":"` + stInfo.ID + `"},"k":16,"eps":0.5}`,
		`{"a":{"samples":[1,2,3]},"b":{"spec":` + spec + `},"n":16,"k":16,"eps":0.5}`,
		`{"a":{"samples":[99]},"b":{"spec":` + spec + `},"n":16,"k":16,"eps":0.5}`,
		`{"a":{"spec":` + spec + `},"b":{"spec":{"n":8,"masses":[1]}},"k":16,"eps":0.5}`,
		`{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":16,"eps":0.5,"bogus":true}`,
		`{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":16,"eps":0.5,"reps":-3,"scale":-1}`,
		`{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":16,"eps":0.5,"count_strategy":"psychic"}`,
		`{"a":{"spec":{"n":16,"cuts":[99],"masses":[1,1]}},"b":{"spec":` + spec + `},"k":16,"eps":0.5}`,
		strings.Repeat("[", 1000),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body string) {
		resp, err := http.Post(hs.URL+"/v1/closeness", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		switch resp.StatusCode {
		case http.StatusOK,
			http.StatusBadRequest,          // malformed body / invalid pair
			http.StatusNotFound,            // unknown sampler or stream
			http.StatusUnprocessableEntity, // empty window / dataset too small
			http.StatusTooManyRequests:     // single-worker queue momentarily full
		default:
			t.Fatalf("status %d for body %q — decoder must map every input to a typed 4xx or a verdict", resp.StatusCode, body)
		}
	})
}
