package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// vmHWM reads a process's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// rssPeaks records the peak RSS of every measured check: after each check
// it reads the kernel's high-water mark and resets it through
// /proc/self/clear_refs. A window's high-water mark is its one worst check,
// set by how a garbage collection happened to line up with it; the mean
// over checks is not.
type rssPeaks struct {
	byItem map[int][]float64
	failed bool
}

func (p *rssPeaks) after(phase, item int) {
	if p.failed {
		return
	}
	hwm, err := vmHWM(os.Getpid())
	if err == nil {
		err = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	}
	if err != nil {
		p.failed = true
		return
	}
	if phase == phaseMeasured {
		if p.byItem == nil {
			p.byItem = map[int][]float64{}
		}
		p.byItem[item] = append(p.byItem[item], hwm)
	}
}

// peak is the largest per-item mean peak, in MiB: the memory a caller
// needs for the corpus's most demanding proof. It is 0 when nothing was
// recorded.
func (p *rssPeaks) peak() float64 {
	if p.failed {
		return 0
	}
	top := 0.0
	for _, xs := range p.byItem {
		top = max(top, sum(xs)/float64(len(xs)))
	}
	return top
}
