package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// SporadicConfig drives random admissible disturbance generation: each
// application is disturbed with probability Rate at every eligible sample
// (eligible = at least its r since the previous disturbance), giving the
// sporadic model of the paper with random phasing.
type SporadicConfig struct {
	Seed    int64
	Rate    float64 // per-sample disturbance probability when eligible (default 0.1)
	Horizon int     // samples per run (default 600)
	// QuietTail stops injection this many samples before the horizon so
	// that every disturbance has room to settle and the measured settling
	// times are meaningful (default 150).
	QuietTail int
}

// RandomScenario draws one admissible disturbance scenario for n
// applications with the given minimum inter-arrival times (in samples).
func RandomScenario(cfg SporadicConfig, rs []int) Scenario {
	if cfg.Rate <= 0 {
		cfg.Rate = 0.1
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 600
	}
	if cfg.QuietTail <= 0 {
		cfg.QuietTail = 150
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	last := make([]int, len(rs))
	for i := range last {
		last[i] = -1 << 30
	}
	var dists []Disturbance
	for k := 0; k < cfg.Horizon-cfg.QuietTail; k++ {
		for i, r := range rs {
			if k-last[i] >= r && rng.Float64() < cfg.Rate {
				dists = append(dists, Disturbance{Sample: k, App: i})
				last[i] = k
			}
		}
	}
	return Scenario{Disturbances: dists, Horizon: cfg.Horizon}
}

// MonteCarloResult summarises a randomized validation campaign.
type MonteCarloResult struct {
	Runs         int
	Disturbances int   // total injected
	Misses       int   // runs with a deadline miss
	WorstJ       []int // per app: worst settling time observed (samples)
	WorstSlack   []int // per app: min (J* − J) observed; negative = violation
	TTSamples    int   // total TT samples consumed across runs
}

// MonteCarlo runs `runs` random sporadic scenarios through the co-simulator
// and aggregates worst-case observations. On a slot set the model checker
// proved schedulable, Misses must be 0 and every WorstSlack ≥ 0 — this is
// the statistical cross-check of the formal verdict (the converse direction
// of the verifier's exhaustive guarantee).
func (r *Runner) MonteCarlo(runs int, cfg SporadicConfig) (*MonteCarloResult, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("sim: runs must be positive")
	}
	n := len(r.plants)
	rs := make([]int, n)
	for i := range rs {
		rs[i] = r.plants[i].R
	}
	out := &MonteCarloResult{
		Runs:       runs,
		WorstJ:     make([]int, n),
		WorstSlack: make([]int, n),
	}
	for i := range out.WorstSlack {
		out.WorstSlack[i] = math.MaxInt32
	}
	for run := 0; run < runs; run++ {
		sc := RandomScenario(SporadicConfig{
			Seed: cfg.Seed + int64(run), Rate: cfg.Rate,
			Horizon: cfg.Horizon, QuietTail: cfg.QuietTail,
		}, rs)
		res, err := r.Run(sc)
		if err != nil {
			return nil, err
		}
		out.Disturbances += len(sc.Disturbances)
		if res.Missed {
			out.Misses++
		}
		for i, a := range res.Apps {
			out.TTSamples += a.TTSamples
			disturbed := false
			for _, d := range sc.Disturbances {
				if d.App == i {
					disturbed = true
					break
				}
			}
			if !disturbed {
				continue
			}
			j := a.J
			if !a.Settled {
				j = math.MaxInt32 / 2
			}
			if j > out.WorstJ[i] {
				out.WorstJ[i] = j
			}
			if slack := r.plants[i].JStar - j; slack < out.WorstSlack[i] {
				out.WorstSlack[i] = slack
			}
		}
	}
	return out, nil
}
