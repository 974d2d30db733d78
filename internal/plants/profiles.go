package plants

import (
	"sync"

	"tightcps/internal/switching"
)

// SwitchingPlant adapts an App to the switching-analysis input type.
func SwitchingPlant(a App) switching.Plant {
	return switching.Plant{
		Name: a.Name, Sys: a.Plant, KT: a.KT, KE: a.KE,
		X0: a.X0, JStar: a.JStar, R: a.R,
	}
}

var (
	profOnce sync.Once
	profMap  map[string]*switching.Profile
	profErr  error
)

// Profiles computes (once, then caches) the switching profiles of all six
// case-study applications: the Table 1 sweep, about a millisecond per
// application.
func Profiles() (map[string]*switching.Profile, error) {
	profOnce.Do(func() {
		profMap = make(map[string]*switching.Profile, 6)
		for _, a := range CaseStudy() {
			p, err := switching.Compute(SwitchingPlant(a), switching.Config{})
			if err != nil {
				profErr = err
				return
			}
			profMap[a.Name] = p
		}
	})
	return profMap, profErr
}

// ProfileList returns the cached profiles for the named applications, in
// the given order.
func ProfileList(names ...string) ([]*switching.Profile, error) {
	m, err := Profiles()
	if err != nil {
		return nil, err
	}
	out := make([]*switching.Profile, 0, len(names))
	for _, n := range names {
		p, ok := m[n]
		if !ok {
			return nil, &unknownAppError{n}
		}
		out = append(out, p)
	}
	return out, nil
}

type unknownAppError struct{ name string }

func (e *unknownAppError) Error() string { return "plants: unknown application " + e.name }
