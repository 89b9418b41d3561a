package sim

import (
	"errors"
	"slices"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/workload"
)

// EpochProbe is a policy-arm placement run paused after a warm-up, for
// pinning what one epoch allocates. Each Epoch call runs one whole
// placement epoch of RunPlacement's own code — the harvest, Select
// through the run's scratch, the rank table, ApplySelection and the
// khugepaged pass — with no references executed in between, so nothing
// but the epoch is measured.
//
// The epochs alternate two harvests whose selections differ: the
// warm-up's last harvest, and the same pages with every tier flipped.
// Most of a harvest ties on rank, and RankCmp breaks rank ties in
// favour of fast-tier residents, so the flipped copy selects other
// pages: each epoch demotes (building the rank table) and promotes.
type EpochProbe struct {
	run      *placementRun
	harvests [2][]core.PageStat
	turn     int
}

// probeSettleEpochs is how many probe epochs NewEpochProbe runs after
// the warm-up: enough for the scratch to grow to both harvests and for
// the mover's THP splits and khugepaged's collapses to settle into a
// cycle.
const probeSettleEpochs = 10

// NewEpochProbe builds cfg's policy arm exactly as RunPlacement does,
// drives cfg.TotalRefs references of w through the run's loop, and
// then runs probeSettleEpochs probe epochs, so the next Epoch is a
// steady-state one. cfg.Policy must be set, and the warm-up must place
// at least one epoch.
func NewEpochProbe(cfg PlacementConfig, w workload.Workload) (*EpochProbe, error) {
	if cfg.Policy == nil {
		return nil, errors.New("sim: an epoch probe needs a policy arm")
	}
	r, err := newPlacementRun(cfg, w)
	if err != nil {
		return nil, err
	}
	if _, _, err := Drive(r.m, w, r.cfg.TotalRefs, r.cfg.BatchSize, r.afterBatch); err != nil {
		return nil, err
	}
	if r.prof.Epoch() == 0 {
		return nil, errors.New("sim: an epoch probe's warm-up placed no epoch")
	}
	last := slices.Clone(r.ep.Pages)
	flipped := slices.Clone(last)
	for i := range flipped {
		if flipped[i].Tier == mem.FastTier {
			flipped[i].Tier = mem.SlowTier
		} else {
			flipped[i].Tier = mem.FastTier
		}
	}
	p := &EpochProbe{run: r, harvests: [2][]core.PageStat{last, flipped}}
	for i := 0; i < probeSettleEpochs; i++ {
		if _, _, err := p.Epoch(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Epoch runs one placement epoch on the harvest the previous call did
// not use and returns how many pages it promoted and demoted.
func (p *EpochProbe) Epoch() (promoted, demoted int, err error) {
	r := p.run
	p.turn ^= 1
	now := r.m.Now()
	r.harvest(now)
	r.ep.Pages = append(r.ep.Pages[:0], p.harvests[p.turn]...)
	promotions, demotions := r.mover.Promotions, r.mover.Demotions
	err = r.place(now)
	return int(r.mover.Promotions - promotions), int(r.mover.Demotions - demotions), err
}
