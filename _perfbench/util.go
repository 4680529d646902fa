package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gopim/internal/obs"
	"gopim/internal/trace"
)

// serialOps runs ops back to back in whole rounds until the window closes
// (smoke mode: exactly two rounds). A round is one untraced op, or in a
// traced run an untraced op followed by a traced one, so the tracing
// overhead is measured on interleaved ops. op returns the op's CPU
// seconds; an error counts the op as failed.
func (b *bench) serialOps(o *outcome, op func(i int, traced bool) (float64, error)) {
	perRound := []bool{false}
	if b.traced {
		perRound = []bool{false, true}
	}
	start := time.Now()
	i := 0
	for round := 0; !b.windowClosed(start, round); round++ {
		for _, traced := range perRound {
			o.attempted++
			d, err := op(i, traced)
			i++
			if err != nil {
				o.failed++
				logf("op %d failed: %v", i-1, err)
				continue
			}
			if traced {
				o.tracedLat = append(o.tracedLat, d)
			} else {
				o.lat = append(o.lat, d)
			}
		}
	}
}

// cpuSeconds returns the user and system CPU time of every thread of this
// process. The kernel leaves out time the hypervisor gave to other guests
// (steal), which wall time includes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// hostTicks returns the machine's total and stolen CPU ticks from
// /proc/stat (steal: time the hypervisor ran something else).
func hostTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i := 1; i < len(f) && i <= 8; i++ {
		n, _ := strconv.ParseInt(f[i], 10, 64)
		total += n
		if i == 8 {
			steal = n
		}
	}
	return total, steal
}

// stealPct returns the share of the machine's CPU time the hypervisor
// stole since hostTicks returned total and steal.
func stealPct(total, steal int64) float64 {
	t, s := hostTicks()
	if t <= total {
		return 0
	}
	return 100 * float64(s-steal) / float64(t-total)
}

// rssSampler polls this process's resident set size every 10 ms and
// keeps the peak of each op. A nil sampler keeps nothing.
type rssSampler struct {
	mu    sync.Mutex
	peak  int64     // peak since the current op's interval began
	peaks []float64 // finished ops' peaks, MiB
	stop  chan struct{}
	wg    sync.WaitGroup
}

// sampleRSS starts polling; stop it with done.
func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: residentBytes()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.poll()
			}
		}
	}()
	return s
}

func (s *rssSampler) poll() {
	n := residentBytes()
	s.mu.Lock()
	s.peak = max(s.peak, n)
	s.mu.Unlock()
}

// opDone ends an op: it keeps the peak since the previous op ended (or
// sampling began) and starts the next interval at the current size.
func (s *rssSampler) opDone() {
	if s == nil {
		return
	}
	n := residentBytes()
	s.mu.Lock()
	s.peaks = append(s.peaks, mb(max(s.peak, n)))
	s.peak = n
	s.mu.Unlock()
}

// done stops the sampler and returns the median of the ops' peaks in
// MiB.
func (s *rssSampler) done() float64 {
	close(s.stop)
	s.wg.Wait()
	return median(s.peaks)
}

// residentBytes reads this process's current resident set size.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// childPeakMB returns a finished child's peak resident set size in MiB.
func childPeakMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// storeEntry identifies one store file's on-disk incarnation: an entry
// rewritten by a re-recording gets a new inode and modification time.
type storeEntry struct {
	size  int64
	mtime time.Time
	ino   uint64
}

// storeSnapshot lists every file under a trace store directory.
type storeSnapshot map[string]storeEntry

func snapshotStore(dir string) (storeSnapshot, error) {
	snap := storeSnapshot{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		e := storeEntry{size: info.Size(), mtime: info.ModTime()}
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			e.ino = st.Ino
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		snap[rel] = e
		return nil
	})
	return snap, err
}

// bytes sums the sizes of the store's files.
func (s storeSnapshot) bytes() int64 {
	var n int64
	for _, e := range s {
		n += e.size
	}
	return n
}

// diff describes how other differs from s ("" when identical): a file
// added, removed, or rewritten since s was taken.
func (s storeSnapshot) diff(other storeSnapshot) string {
	for name, e := range s {
		o, ok := other[name]
		if !ok {
			return "entry removed: " + name
		}
		if o != e {
			return "entry rewritten: " + name
		}
	}
	for name := range other {
		if _, ok := s[name]; !ok {
			return "entry added: " + name
		}
	}
	return ""
}

// firstDiff returns the offset of the first byte where got differs from
// want, or -1 when they are equal.
func firstDiff(want, got []byte) int {
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return i
		}
	}
	if len(want) != len(got) {
		return n
	}
	return -1
}

// checkBytes fails the run when an op's output differs from the
// reference.
func (b *bench) checkBytes(what string, want, got []byte) {
	if at := firstDiff(want, got); at >= 0 {
		b.fail("%s: output differs from the reference at byte %d (%d vs %d bytes)", what, at, len(got), len(want))
	}
}

// mix derives a well-spread 62-bit value from a seed and a stream index
// (splitmix64 finalizer).
func mix(seed int64, i uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2)
}

// attach wires a registry into a cache and its store the way pimsim's
// -report does: phase spans from both, counters as snapshot sources. A
// nil registry leaves them untraced.
func attach(reg *obs.Registry, c *trace.Cache, st *trace.Store) {
	if reg == nil {
		return
	}
	c.Obs = reg
	reg.AddSource(obs.PrefixTraceCache, c)
	if st != nil {
		st.Obs = reg
		reg.AddSource(obs.PrefixTraceStore, st)
	}
}
