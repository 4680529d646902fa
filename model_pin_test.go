package gopim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gopim"
	"gopim/internal/mem"
	"gopim/internal/profile"
	"gopim/internal/trace"
)

// pinnedProfilesDigest is TestModelProfilesPinned's sha256 over the nine
// quick targets on the three paper configs. Every byte-identity gate
// compares two modes of one build (compiled replay, the interpreter and an
// uncached run all drive the same cache model), so a deterministic but
// wrong model passes them all; this constant pins the model's absolute
// output. Change it only together with a change that is meant to move the
// modelled statistics.
const pinnedProfilesDigest = "1bf32e661116af303e484293bbfc4013682abb0f3fcdf7489f58e7437fb7c1cc"

// TestModelProfilesPinned profiles the nine quick targets on SoC, PIM-core
// and PIM-acc through one store-backed trace cache, hashes every total and
// per-phase profile (phases in name order) against pinnedProfilesDigest,
// and checks the cache/DRAM model's conservation laws on each of the 27
// results. Every field of profile.Profile is a uint64, hashed
// little-endian in declaration order, so the digest is the same on every
// architecture. It then replays the nine stored entries through the
// reference interpreter, which decodes their event sections lazily, and
// requires the same 27 results.
func TestModelProfilesPinned(t *testing.T) {
	st, err := trace.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := trace.NewCache()
	c.Store = st
	type result struct {
		total  profile.Profile
		phases map[string]profile.Profile
	}
	first := map[string]result{}
	targets := gopim.Targets(gopim.Quick)
	hws := []profile.Hardware{profile.SoC(), profile.PIMCore(), profile.PIMAcc()}
	h := sha256.New()
	hash := func(label string, p profile.Profile) {
		fmt.Fprintf(h, "%s\x00", label)
		if err := binary.Write(h, binary.LittleEndian, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, tgt := range targets {
		for _, hw := range hws {
			total, phases := c.Profile(hw, tgt.Kernel)
			first[tgt.Name+"\x00"+hw.Name] = result{total, phases}
			names := make([]string, 0, len(phases))
			for name := range phases {
				names = append(names, name)
			}
			sort.Strings(names)
			hash(tgt.Name+"\x00"+hw.Name, total)
			var sum profile.Profile
			for _, name := range names {
				hash(name, phases[name])
				sum = sum.Add(phases[name])
			}
			where := tgt.Name + " on " + hw.Name
			checkModelLaws(t, where, hw, total)
			for _, name := range names {
				checkModelLaws(t, where+" phase "+name, hw, phases[name])
			}
			if len(phases) > 0 && sum != total {
				t.Errorf("%s: per-phase profiles sum to %+v, total is %+v", where, sum, total)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedProfilesDigest {
		t.Errorf("profile digest %s, want %s: the modelled statistics moved", got, pinnedProfilesDigest)
	}

	st.Wait()
	fresh := trace.NewCache()
	fresh.Store = st
	for _, tgt := range targets {
		tr := fresh.TraceFor(tgt.Kernel)
		for _, hw := range hws {
			total, phases := tr.ReplayInterp(hw)
			want := first[tgt.Name+"\x00"+hw.Name]
			if total != want.total || !reflect.DeepEqual(phases, want.phases) {
				t.Errorf("%s on %s: the interpreter's replay of the stored trace differs from the first pass", tgt.Name, hw.Name)
			}
		}
	}
	if s := fresh.Stats(); s.Records != 0 || s.StoreHits != int64(len(targets)) {
		t.Errorf("fresh cache over the store: %d records, %d store hits; want 0 and %d", s.Records, s.StoreHits, len(targets))
	}
}

// checkModelLaws checks one profile against the model's conservation laws:
// hits + misses = accesses at every level; L1 misses + L1 writebacks = LLC
// accesses; DRAM bytes written = last-level writebacks x line size; DRAM
// bytes read <= last-level misses x line size (an L1 writeback that misses
// the LLC is allocated there without a DRAM read).
func checkModelLaws(t *testing.T, where string, hw profile.Hardware, p profile.Profile) {
	t.Helper()
	if p.L1.Hits+p.L1.Misses != p.L1.Accesses {
		t.Errorf("%s: L1 hits %d + misses %d != accesses %d", where, p.L1.Hits, p.L1.Misses, p.L1.Accesses)
	}
	last := p.L1
	if hw.L2 != nil {
		last = p.LLC
		if p.LLC.Hits+p.LLC.Misses != p.LLC.Accesses {
			t.Errorf("%s: LLC hits %d + misses %d != accesses %d", where, p.LLC.Hits, p.LLC.Misses, p.LLC.Accesses)
		}
		if p.L1.Misses+p.L1.Writebacks != p.LLC.Accesses {
			t.Errorf("%s: L1 misses %d + writebacks %d != LLC accesses %d", where, p.L1.Misses, p.L1.Writebacks, p.LLC.Accesses)
		}
	}
	line := uint64(hw.L1.LineSize)
	if line == 0 {
		line = mem.LineSize
	}
	if p.Mem.BytesWritten != last.Writebacks*line {
		t.Errorf("%s: DRAM bytes written %d != last-level writebacks %d x %d", where, p.Mem.BytesWritten, last.Writebacks, line)
	}
	if p.Mem.BytesRead > last.Misses*line {
		t.Errorf("%s: DRAM bytes read %d > last-level misses %d x %d", where, p.Mem.BytesRead, last.Misses, line)
	}
}
