package tune

import (
	"repro/internal/driver"
	"repro/internal/schedule"
)

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
