package verify

// Spec is the wire-serializable form of Config: the knobs a remote caller
// of the admission service may set, under stable JSON names. Only the
// verdict-relevant fields exist here — Workers and Distributed are
// serving-side decisions (they never change a verdict, see
// mapping.VerifyConfigKey), so a client cannot pin them.

import (
	"fmt"

	"tightcps/internal/sched"
)

// Spec selects a verification configuration over the wire. The zero value
// is the admission service's default: the paper's eager policy, sound
// nondeterministic tie exploration, the default state budget.
type Spec struct {
	// Policy names the preemption policy: "" or "eager" (the paper's
	// strategy), or "lazy".
	Policy string `json:"policy,omitempty"`
	// DetTies switches to the runtime arbiter's deterministic tie-break
	// (cross-validation only; the default nondeterministic exploration is
	// what makes verdicts sound).
	DetTies bool `json:"detTies,omitempty"`
	// MaxStates is the visited-state budget of the search, on any backend.
	// 0 is the engine default (200M); the serving side may clamp it
	// further.
	MaxStates int `json:"maxStates,omitempty"`
	// Symmetry enables the identical-profile symmetry quotient.
	Symmetry bool `json:"symmetry,omitempty"`
}

// Config resolves the spec into a Config. The returned Config carries no
// Workers/Distributed — callers layer those on.
func (s Spec) Config() (Config, error) {
	cfg := Config{
		NondetTies:        !s.DetTies,
		MaxStates:         s.MaxStates,
		SymmetryReduction: s.Symmetry,
	}
	switch s.Policy {
	case "", "eager":
		cfg.Policy = sched.PreemptEager
	case "lazy":
		cfg.Policy = sched.PreemptLazy
	default:
		return Config{}, fmt.Errorf("verify: unknown preemption policy %q (want \"eager\" or \"lazy\")", s.Policy)
	}
	if s.MaxStates < 0 {
		return Config{}, fmt.Errorf("verify: negative state budget %d", s.MaxStates)
	}
	return cfg, nil
}

// SpecOf captures the verdict-relevant fields of a Config as a Spec, the
// inverse of Spec.Config for configs built by the CLIs.
func SpecOf(cfg Config) Spec {
	s := Spec{
		DetTies:   !cfg.NondetTies,
		MaxStates: cfg.MaxStates,
		Symmetry:  cfg.SymmetryReduction,
	}
	if cfg.Policy == sched.PreemptLazy {
		s.Policy = "lazy"
	}
	return s
}
