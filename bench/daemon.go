package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one vadalogd subprocess on a loopback port of the kernel's
// choosing. Its stdout (after the listen line) and stderr go to a log
// file under the output directory.
type daemon struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:port"
	log  *os.File
	// drained closes when the stdout copier has seen EOF, i.e. after the
	// process has exited.
	drained chan struct{}
}

// startDaemon execs the binary with -addr 127.0.0.1:0 plus args and
// returns once the daemon has printed the address it listens on. The
// log file is opened for append: a recovery restart continues the file
// of the run it recovers.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	// The daemon must not outlive the driver, whatever kills the driver.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, log: logf, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		r := bufio.NewReader(out)
		for {
			line, err := r.ReadString('\n')
			fmt.Fprint(logf, line)
			if addr, ok := strings.CutPrefix(strings.TrimSpace(line), "vadalogd: listening on "); ok {
				addrc <- addr
				io.Copy(logf, r) //nolint:errcheck // best-effort log capture
				return
			}
			if err != nil {
				close(addrc)
				return
			}
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("%s exited before listening; see %s", bin, logPath)
		}
		if _, _, err := net.SplitHostPort(addr); err != nil {
			d.kill()
			return nil, fmt.Errorf("daemon printed address %q: %w", addr, err)
		}
		d.base = "http://" + addr
		return d, nil
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not listen within 20s; see %s", bin, logPath)
	}
}

// kill SIGKILLs the daemon and waits until it has ended. Safe to call
// twice.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	<-d.drained          // Wait closes the pipe; the copier must finish first
	d.cmd.Wait()         //nolint:errcheck // killed: the exit status is the signal
	d.log.Close()
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context, hc *http.Client) error {
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon never became healthy: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// procStatus reads one "Key:   value kB" line of /proc/<pid>/status in
// bytes.
func procStatus(pid int, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// peakRSS is the daemon's resident-set high-water mark (VmHWM); rss the
// current resident set. Bytes.
func (d *daemon) peakRSS() (int64, error) { return procStatus(d.cmd.Process.Pid, "VmHWM") }
func (d *daemon) rss() (int64, error)     { return procStatus(d.cmd.Process.Pid, "VmRSS") }

// resetPeakRSS restarts VmHWM from the current resident set (writing 5
// to clear_refs does exactly that). Where the kernel refuses, the mark
// simply keeps counting from process start.
func (d *daemon) resetPeakRSS() {
	os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0) //nolint:errcheck // see above
}

// cpuSeconds is the user+system CPU time a process has used so far.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("malformed /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ, fixed at 100 on Linux
	return (utime + stime) / clockTicks, nil
}
