package tune

import (
	"repro/internal/driver"
	"repro/internal/schedule"
	"repro/internal/titan"
	"repro/internal/token"
)

// entry is set's schedule for key, the zero schedule when it has none.
func entry(set *schedule.Set, key schedule.LoopKey) schedule.Schedule {
	return set.Lookup(key.Proc, token.Pos{Line: key.Line, Col: key.Col}, schedule.Schedule{})
}

// Grid is what a search over src offers: each tunable loop's candidates.
func Grid(src string, opts driver.Options) ([][]schedule.Schedule, error) {
	s, err := newSearch(src, opts, Config{})
	if err != nil {
		return nil, err
	}
	defer s.base.Release()
	var grid [][]schedule.Schedule
	for _, li := range s.discover() {
		grid = append(grid, li.candidates)
	}
	return grid, nil
}

// HeadAroundSearch runs a search over src and returns how the head IL —
// the IL every candidate's clone shares its expressions with — prints
// before the search and after it.
func HeadAroundSearch(src string, opts driver.Options, cfg Config) (before, after string, err error) {
	s, err := newSearch(src, opts, cfg)
	if err != nil {
		return "", "", err
	}
	defer s.base.Release()
	before = s.base.String()
	if _, err := s.run(); err != nil {
		return "", "", err
	}
	return before, s.base.String(), nil
}

// TuneDiverging is Tune with one legal schedule miscompiled on purpose:
// the first candidate of the first loop the search visits is compiled
// from wrong instead of src. It returns that loop and schedule with the
// search's error.
func TuneDiverging(src, wrong string, opts driver.Options, cfg Config) (schedule.LoopKey, schedule.Schedule, error) {
	s, err := newSearch(src, opts, cfg)
	if err != nil {
		return schedule.LoopKey{}, schedule.Schedule{}, err
	}
	defer s.base.Release()
	first := s.discover()[0]
	key, sch := first.key, first.candidates[0]
	s.generate = func(set *schedule.Set) (*titan.Program, error) {
		if entry(set, key) == sch {
			res, err := driver.Compile(wrong, opts)
			if err != nil {
				return nil, err
			}
			return res.Machine, nil
		}
		return s.compile(set)
	}
	_, err = s.run()
	return key, sch, err
}
