package edgemeg

import (
	"fmt"

	"repro/internal/dyngraph"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/rng"
)

// ParseInit maps the textual initial-distribution names used in model
// specs to Init values.
func ParseInit(text string) (Init, error) {
	switch text {
	case "stationary":
		return InitStationary, nil
	case "empty":
		return InitEmpty, nil
	case "full":
		return InitFull, nil
	}
	return 0, fmt.Errorf("edgemeg: unknown init %q (want stationary, empty, or full)", text)
}

// MixingChain returns the per-edge birth/death chain and its stationary
// law as a generic Markov chain.
func (p Params) MixingChain() (*markov.Sparse, []float64) {
	b := markov.NewSparseBuilder(2)
	if p.P > 0 {
		b.Set(0, 1, p.P)
	}
	if p.P < 1 {
		b.Set(0, 0, 1-p.P)
	}
	if p.Q > 0 {
		b.Set(1, 0, p.Q)
	}
	if p.Q < 1 {
		b.Set(1, 1, 1-p.Q)
	}
	alpha := p.Alpha()
	return b.MustBuild(), []float64{1 - alpha, alpha}
}

// MixingChain implements model.ChainAnalyzer.
func (s *Sparse) MixingChain() (*markov.Sparse, []float64) { return s.params.MixingChain() }

// MixingChain implements model.ChainAnalyzer.
func (d *Dense) MixingChain() (*markov.Sparse, []float64) { return d.params.MixingChain() }

func init() {
	model.Register(model.Definition{
		Name: "edgemeg",
		Help: "two-state edge-MEG: every potential edge follows an independent birth/death chain",
		Params: []model.Param{
			{Name: "n", Kind: model.Int, Default: "256", Help: "nodes"},
			{Name: "p", Kind: model.Float, Default: "0.004", Help: "edge birth rate (off -> on)"},
			{Name: "q", Kind: model.Float, Default: "0.096", Help: "edge death rate (on -> off)"},
			{Name: "init", Kind: model.String, Default: "stationary", Help: "initial law: stationary | empty | full"},
			{Name: "dense", Kind: model.Bool, Default: "false", Help: "use the dense O(n²)-per-step simulator"},
			{Name: "stream", Kind: model.String, Default: "v1", Help: "RNG stream generation: v1 (pinned legacy draws) | v2 (O(churn) samplers on; same law)"},
		},
		Build: func(a model.Args, r *rng.RNG) (dyngraph.Dynamic, error) {
			params := Params{N: a.Int("n"), P: a.Float("p"), Q: a.Float("q")}
			if err := params.Validate(); err != nil {
				return nil, err
			}
			init, err := ParseInit(a.String("init"))
			if err != nil {
				return nil, err
			}
			fast, err := parseStream(a.String("stream"))
			if err != nil {
				return nil, err
			}
			if a.Bool("dense") {
				if fast {
					return nil, fmt.Errorf("edgemeg: stream=v2 applies to the sparse simulator only")
				}
				return NewDense(params, init, r), nil
			}
			s := NewSparse(params, init, r)
			if fast {
				s.UseChurnSampler()
			}
			return s, nil
		},
	})

	model.Register(model.Definition{
		Name: "edgemeg4",
		Help: "bursty four-state edge-MEG of Becchetti et al. [5] (contact bursts and quiet periods)",
		Params: []model.Param{
			{Name: "n", Kind: model.Int, Default: "256", Help: "nodes"},
			{Name: "wake", Kind: model.Float, Default: "0.0024", Help: "long-off -> short-on rate (new burst)"},
			{Name: "rebound", Kind: model.Float, Default: "0.3", Help: "short-off -> short-on rate (burst continues)"},
			{Name: "calm", Kind: model.Float, Default: "0.3", Help: "short-off -> long-off rate (burst ends)"},
			{Name: "drop", Kind: model.Float, Default: "0.4", Help: "short-on -> short-off rate (contact gap)"},
			{Name: "settle", Kind: model.Float, Default: "0.05", Help: "short-on -> long-on rate (contact stabilizes)"},
			{Name: "detach", Kind: model.Float, Default: "0.2", Help: "long-on -> long-off rate (contact ends)"},
			{Name: "stream", Kind: model.String, Default: "v1", Help: "RNG stream generation: v1 (pinned per-pair sweep) | v2 (per-state-class O(churn) sampler; same law)"},
		},
		Build: func(a model.Args, r *rng.RNG) (dyngraph.Dynamic, error) {
			g, err := NewFourState(FourStateParams{
				N:       a.Int("n"),
				WakeUp:  a.Float("wake"),
				Rebound: a.Float("rebound"),
				Calm:    a.Float("calm"),
				Drop:    a.Float("drop"),
				Settle:  a.Float("settle"),
				Detach:  a.Float("detach"),
			}, r)
			if err != nil {
				return nil, err
			}
			fast, err := parseStream(a.String("stream"))
			if err != nil {
				return nil, err
			}
			if fast {
				g.UseClassChains()
			}
			return g, nil
		},
	})
}

// parseStream resolves the stream spec param: v1 keeps the pinned RNG
// draws, v2 turns the O(churn) samplers on. Unset specs parse as v1, so
// every pre-existing spec string — and every fixed-seed pin over one — is
// untouched.
func parseStream(stream string) (fast bool, err error) {
	switch stream {
	case "v1":
		return false, nil
	case "v2":
		return true, nil
	}
	return false, fmt.Errorf("edgemeg: unknown stream %q (want v1 or v2)", stream)
}
