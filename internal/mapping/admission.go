package mapping

import (
	"errors"
	"fmt"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// Admission is the one function that turns a slot set into an admission
// bit — core's dimensioning loop, the mappers' default and the
// experiments' sweeps all ask it — so the prefilter order, the rule for a
// busted budget and the cache salt of the answers are decided here. It
// runs the counterexample-replay prefilter, then the exact search, and
// counts what it did. It is not safe for concurrent use; the mappers ask
// one question at a time.
type Admission struct {
	cfg   verify.Config
	stats AdmissionStats
}

// AdmissionStats counts what an Admission did: sets a replayed
// counterexample refuted, conservative "no"s for a busted MaxStates and
// for sets the packed encoding cannot hold, and the states, wall time and
// frontier traffic of every search, busted ones included.
type AdmissionStats struct {
	Refuted, BudgetRejects, EncodingRejects int
	States                                  int
	SearchTime                              time.Duration
	Wire                                    verify.WireStats
}

// budgetedStore marks the salt of a store that can hold conservative
// rejects, so that no exact store — the admission service's, an unbudgeted
// run's — shares it.
const budgetedStore = 0xb0d6e7ed5a1757e5

// NewAdmission returns the admission for cfg, on the local engine or the
// cluster cfg.Distributed runs on: MaxStates bounds the question, so both
// answer it alike. Ties are explored nondeterministically, which is what
// makes a "yes" sound.
func NewAdmission(cfg verify.Config) *Admission {
	cfg.NondetTies = true
	return &Admission{cfg: cfg}
}

// Config returns the config the exact search runs under.
func (a *Admission) Config() verify.Config { return a.cfg }

// Verify answers one admission question; it is a VerifyFunc. A set the
// packed encoding cannot hold, or whose search busts a MaxStates the config
// sets, is a counted conservative "no". Without a budget, ErrTooLarge is
// returned, and so is any other error.
func (a *Admission) Verify(set []*switching.Profile) (bool, error) {
	// A replayed counterexample settles a "no" in microseconds.
	if verify.Refute(set, a.cfg.Policy) {
		a.stats.Refuted++
		return false, nil
	}
	t0 := time.Now()
	res, err := verify.Slot(set, a.cfg)
	a.stats.SearchTime += time.Since(t0)
	a.stats.States += res.States
	a.stats.Wire.Add(res.Wire)
	switch {
	case errors.Is(err, verify.ErrEncoding):
		a.stats.EncodingRejects++
		return false, nil
	case errors.Is(err, verify.ErrTooLarge) && a.cfg.MaxStates > 0:
		a.stats.BudgetRejects++
		return false, nil
	case err != nil:
		return false, err
	}
	return res.Schedulable, nil
}

// Stats returns the counts so far.
func (a *Admission) Stats() AdmissionStats { return a.stats }

// Salt is the cache salt of this admission's answers: VerifyConfigKey of
// its config and, when the config sets MaxStates, a marker — such a store
// holds conservative rejects, which no exact store may serve as verdicts.
// It is the same on every backend.
func (a *Admission) Salt() uint64 {
	if a.cfg.MaxStates > 0 {
		return VerifyConfigKey(a.cfg, budgetedStore)
	}
	return VerifyConfigKey(a.cfg)
}

// CheckCache returns ErrCacheConfig when c is salted for another
// admission. A nil cache and NewCache's unsalted one are accepted.
func (a *Admission) CheckCache(c *Cache) error {
	if c == nil || c.cfgKey == 0 || c.cfgKey == a.Salt() {
		return nil
	}
	return fmt.Errorf("%w: cache salt %#x, admission salt %#x", ErrCacheConfig, c.cfgKey, a.Salt())
}
