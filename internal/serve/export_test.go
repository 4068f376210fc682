package serve

import "repro/histtest/client"

// StreamShuffleSalt exposes the snapshot-shuffle seed salt to the
// external test package: the e2e bit-identity test reproduces a served
// stream verdict with a direct core.Test call and must derive the
// replay shuffle's RNG exactly as the server does.
const StreamShuffleSalt = streamShuffleSalt

// ClosenessSamplerSaltB and ClosenessShuffleSaltB expose the side-B seed
// salts of /v1/closeness: the bit-identity suite reconstructs both
// sides' oracles exactly as resolveCloseness does (through source).
const (
	ClosenessSamplerSaltB = closenessSamplerSaltB
	ClosenessShuffleSaltB = closenessShuffleSaltB
)

// RunWorkers resolves a one-sample request as admission does and
// returns the within-run fan-out its run gets.
func (s *Server) RunWorkers(req *client.TestRequest) (int, error) {
	sp, err := s.resolve(req)
	if err != nil {
		return 0, err
	}
	return sp.cfg.Workers, nil
}

// ClosenessRunWorkers is RunWorkers for a closeness request.
func (s *Server) ClosenessRunWorkers(req *client.ClosenessRequest) (int, error) {
	sp, err := s.resolveCloseness(req)
	if err != nil {
		return 0, err
	}
	return sp.close.cfg.Workers, nil
}
