package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// resetPeakRSS clears the kernel's resident-set high-water mark of pid
// (Linux clear_refs "5"), so a later peakRSSMB covers only what ran
// after the reset.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads pid's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPUSeconds is this process's user+system CPU time, all threads
// included, at the microsecond resolution of getrusage.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// taskCPUSeconds sums the on-CPU time of every live thread of pid, from
// /proc/pid/task/*/schedstat, at nanosecond resolution.
func taskCPUSeconds(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the directory was read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return ns / 1e9, nil
}

// setupCosts collects a run's repeated set-ups: the wall seconds of each
// and the CPU seconds the process doing it spent.
type setupCosts struct{ wall, cpu []float64 }

func (s *setupCosts) add(wall, cpu float64) {
	s.wall = append(s.wall, wall)
	s.cpu = append(s.cpu, cpu)
}

// record reports setup_s, the median CPU seconds of one set-up, and
// prints the wall-clock figures beside it.
func (s *setupCosts) record(b *bench) {
	b.info("setup_s %.6f (median CPU seconds of %d set-ups, quartiles %.6f %.6f); wall median %.6f s, quartiles %.6f %.6f",
		median(s.cpu), len(s.cpu), quantile(s.cpu, 0.25), quantile(s.cpu, 0.75),
		median(s.wall), quantile(s.wall, 0.25), quantile(s.wall, 0.75))
	b.record("setup_s", median(s.cpu))
}

// prom is a parsed Prometheus text exposition: series ("name{labels}")
// to value.
type prom map[string]float64

func parseProm(text string) prom {
	p := prom{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	return p
}

// total sums every series of the metric name, whatever its labels; a
// non-empty match keeps only series whose label text contains it.
func (p prom) total(name, match string) float64 {
	var t float64
	for series, v := range p {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		if match != "" && !strings.Contains(rest, match) {
			continue
		}
		t += v
	}
	return t
}

// delta is after − before for one metric name (all labels summed).
func delta(before, after prom, name, match string) float64 {
	return after.total(name, match) - before.total(name, match)
}

// histMean is the mean observation of a histogram between two scrapes
// (Δsum/Δcount), 0 when nothing was observed. Labeled histograms are
// summed over their labels.
func histMean(before, after prom, name string) float64 {
	n := after.hist(name, "_count") - before.hist(name, "_count")
	if n == 0 {
		return 0
	}
	return (after.hist(name, "_sum") - before.hist(name, "_sum")) / n
}

// hist sums a histogram's _sum or _count series over all labels. The
// exposition writes labeled ones as name{labels}_sum, unlabeled ones as
// name_sum.
func (p prom) hist(name, suffix string) float64 {
	var t float64
	for series, v := range p {
		if series == name+suffix ||
			(strings.HasPrefix(series, name+"{") && strings.HasSuffix(series, "}"+suffix)) {
			t += v
		}
	}
	return t
}
