package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the root of the ssrank
// module: the directory whose go.mod declares "module ssrank".
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module ssrank\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside an ssrank checkout (no go.mod declaring module ssrank above the working directory)")
		}
		dir = parent
	}
}

// tools are the binaries the out-of-process workloads start.
var tools = []string{"ssrankd", "ssrank-worker"}

// buildTools builds the job server and the distributed worker from the
// checkout's source into dir. The go command skips work whose inputs are
// unchanged, so a rebuild of an unchanged checkout only relinks.
func buildTools(root, dir string, log io.Writer) error {
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, t := range tools {
		args = append(args, "./cmd/"+t)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %v: %w", tools, err)
	}
	return nil
}

// helper is a process a workload starts: a distributed worker or the
// job server.
type helper struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been waited for
}

// startHelper starts a helper process that dies with this one
// (Pdeathsig), so a benchmark process killed from outside leaves
// nothing behind. Its output is discarded: the helpers log every
// connection.
func startHelper(path string, args ...string) (*helper, error) {
	cmd := exec.Command(path, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(path), err)
	}
	h := &helper{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(h.exited)
	}()
	return h, nil
}

func (h *helper) pid() int { return h.cmd.Process.Pid }

func (h *helper) alive() bool {
	select {
	case <-h.exited:
		return false
	default:
		return true
	}
}

// stop terminates the helper and waits until it has exited.
func (h *helper) stop() {
	h.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-h.exited:
	case <-time.After(5 * time.Second):
		h.cmd.Process.Kill()
		<-h.exited
	}
}

// procStatus reads one kB-valued field of /proc/<pid>/status.
func procStatus(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// peakRSSMB returns the peak resident set size of a live process in MB
// (10⁶ bytes), or 0 when the platform does not expose it.
func peakRSSMB(pid int) float64 {
	kb, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0
	}
	return float64(kb) * 1024 / 1e6
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuSeconds returns the user+system CPU time consumed so far by this
// process and the given live helper processes.
func cpuSeconds(pids []int) float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	total := tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesized command name; utime and stime
		// are fields 14 and 15 of the whole line.
		rest := data[bytes.LastIndexByte(data, ')')+2:]
		f := strings.Fields(string(rest))
		if len(f) < 13 {
			continue
		}
		ut, _ := strconv.ParseInt(f[11], 10, 64)
		st, _ := strconv.ParseInt(f[12], 10, 64)
		total += float64(ut+st) / clockTicks
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
