package main

import (
	"fmt"
	"reflect"
	"sort"

	"gopim"
	"gopim/experiments"
	"gopim/internal/cache"
	"gopim/internal/mem"
	"gopim/internal/profile"
	"gopim/internal/trace"
)

// paperConfigs are the three hardware configurations the paper evaluates
// every target on.
func paperConfigs() []profile.Hardware {
	return []profile.Hardware{profile.SoC(), profile.PIMCore(), profile.PIMAcc()}
}

// lineSize returns hw's line size in bytes.
func lineSize(hw profile.Hardware) uint64 {
	if hw.L1.LineSize == 0 {
		return mem.LineSize
	}
	return uint64(hw.L1.LineSize)
}

// lawViolations checks a profile against the cache/DRAM model's own
// conservation laws and returns every violation found:
//
//   - hits + misses = accesses at each cache level;
//   - L1 misses + L1 writebacks = LLC accesses (when there is an LLC);
//   - DRAM bytes written = last-level writebacks x line size;
//   - DRAM bytes read <= last-level misses x line size (an L1 writeback
//     that misses the LLC is allocated there without a DRAM read);
//   - the per-phase profiles sum to the total.
func lawViolations(hw profile.Hardware, total profile.Profile, phases map[string]profile.Profile) []string {
	var out []string
	check := func(where string, p profile.Profile) {
		bad := func(format string, args ...any) {
			out = append(out, fmt.Sprintf("%s %s: ", hw.Name, where)+fmt.Sprintf(format, args...))
		}
		levels := []struct {
			name string
			s    cache.Stats
		}{{"L1", p.L1}}
		if hw.L2 != nil {
			levels = append(levels, struct {
				name string
				s    cache.Stats
			}{"LLC", p.LLC})
		}
		for _, l := range levels {
			if l.s.Hits+l.s.Misses != l.s.Accesses {
				bad("%s hits %d + misses %d != accesses %d", l.name, l.s.Hits, l.s.Misses, l.s.Accesses)
			}
		}
		last := p.L1
		if hw.L2 != nil {
			last = p.LLC
			if p.L1.Misses+p.L1.Writebacks != p.LLC.Accesses {
				bad("L1 misses %d + writebacks %d != LLC accesses %d", p.L1.Misses, p.L1.Writebacks, p.LLC.Accesses)
			}
		}
		line := lineSize(hw)
		if p.Mem.BytesWritten != last.Writebacks*line {
			bad("DRAM bytes written %d != last-level writebacks %d x %d", p.Mem.BytesWritten, last.Writebacks, line)
		}
		if p.Mem.BytesRead > last.Misses*line {
			bad("DRAM bytes read %d > last-level misses %d x %d", p.Mem.BytesRead, last.Misses, line)
		}
	}
	check("total", total)
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum profile.Profile
	for _, name := range names {
		check("phase "+name, phases[name])
		sum = sum.Add(phases[name])
	}
	if len(phases) > 0 && sum != total {
		out = append(out, fmt.Sprintf("%s: per-phase profiles do not sum to the total", hw.Name))
	}
	return out
}

// checkLaws profiles every paper target on the three paper configs through
// c and checks each profile against the model's laws.
func (b *bench) checkLaws(targets []gopim.Target, c *trace.Cache) {
	for _, t := range targets {
		for _, hw := range paperConfigs() {
			total, phases := c.Profile(hw, t.Kernel)
			for _, v := range lawViolations(hw, total, phases) {
				b.fail("%s: %s", t.Name, v)
			}
		}
	}
}

// paretoViolations checks every workload's rows of an explore result
// against the Pareto property: a marked row is dominated by no row of its
// workload, and an unmarked row is dominated by some row or has the same
// outcome as a lower-ID row (which represents it on the frontier).
func paretoViolations(rows []experiments.ExploreRow) []string {
	var out []string
	byWorkload := map[string][]experiments.ExploreRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, w := range order {
		rs := byWorkload[w]
		for _, r := range rs {
			beaten, tied := false, false
			for _, o := range rs {
				if o.Point.ID == r.Point.ID {
					continue
				}
				if dominates(o, r) {
					beaten = true
				}
				if o.Point.ID < r.Point.ID && sameOutcome(o, r) {
					tied = true
				}
			}
			switch {
			case r.Pareto && beaten:
				out = append(out, fmt.Sprintf("%s: row %d is marked Pareto but is dominated", w, r.Point.ID))
			case r.Pareto && tied:
				out = append(out, fmt.Sprintf("%s: row %d is marked Pareto but ties a lower-ID row", w, r.Point.ID))
			case !r.Pareto && !beaten && !tied:
				out = append(out, fmt.Sprintf("%s: row %d is unmarked but neither dominated nor tied by a lower-ID row", w, r.Point.ID))
			}
		}
	}
	return out
}

func sameOutcome(a, b experiments.ExploreRow) bool {
	return a.EnergyPJ == b.EnergyPJ && a.Seconds == b.Seconds && a.AreaMM2 == b.AreaMM2
}

// dominates reports whether a is no worse than b on energy, time and area
// and strictly better on one.
func dominates(a, b experiments.ExploreRow) bool {
	if a.EnergyPJ > b.EnergyPJ || a.Seconds > b.Seconds || a.AreaMM2 > b.AreaMM2 {
		return false
	}
	return a.EnergyPJ < b.EnergyPJ || a.Seconds < b.Seconds || a.AreaMM2 < b.AreaMM2
}

// servedByStore reports why an op that should have loaded every trace
// from a complete store did not ("" when it did), from its cache's and
// store's counters: any kernel execution, store miss or corrupt entry
// means the op left the fast path.
func servedByStore(c trace.Stats, s trace.StoreStats, entries int) string {
	switch {
	case c.Records != 0 || c.Misses != 0:
		return fmt.Sprintf("%d kernels executed (%d recorded, %d unkeyed)", c.Records+c.Misses, c.Records, c.Misses)
	case s.Corrupt != 0 || s.Misses != 0:
		return fmt.Sprintf("store loads: %d corrupt, %d missing", s.Corrupt, s.Misses)
	case int(s.Hits) != entries:
		return fmt.Sprintf("%d traces loaded from a store of %d entries", s.Hits, entries)
	}
	return ""
}

// sameProfiles reports whether two (total, phases) results are identical.
func sameProfiles(a profile.Profile, ap map[string]profile.Profile, b profile.Profile, bp map[string]profile.Profile) bool {
	return a == b && reflect.DeepEqual(ap, bp)
}

// exploreHardware rebuilds the memory system an explore row was replayed
// on from its reported geometry, the way the explorer builds it.
func exploreHardware(p experiments.DesignPoint) profile.Hardware {
	l1 := cache.Config{Size: p.L1Size, Ways: p.L1Ways, LineSize: p.LineSize}
	switch p.Kind {
	case experiments.KindCPU:
		l1.Name = "L1D"
		l2 := cache.Config{Name: "LLC", Size: p.L2Size, Ways: p.L2Ways, LineSize: p.LineSize}
		return profile.Hardware{Name: p.Kind, L1: l1, L2: &l2}
	case experiments.KindCore:
		l1.Name = "PIM-L1"
	default:
		l1.Name = "PIM-Buf"
	}
	return profile.Hardware{Name: p.Kind, L1: l1}
}
