package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one oasis-server process. The benchmark drives it only through
// its command line and its HTTP API.
type child struct {
	cmd  *exec.Cmd
	addr string

	// logDone is closed once the stderr reader has hit EOF; Wait may only be
	// called after that.
	logDone chan struct{}
	mu      sync.Mutex
	logTail []string
}

// usage is what the kernel reports about an exited child.
type usage struct {
	MaxRSSMB float64 `json:"max_rss_mb"`
	CPUSec   float64 `json:"cpu_s"`
}

const childLogTail = 20

// startServer execs the server binary listening on an ephemeral loopback
// port and returns once it logs its bound address.
func startServer(bin string, args ...string) (*child, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	c := &child{cmd: exec.Command(bin, args...), logDone: make(chan struct{})}
	// A server must not outlive the benchmark, even if the benchmark dies.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	ready := make(chan string, 1)
	go c.readLog(stderr, ready)
	select {
	case addr := <-ready:
		c.addr = addr
		return c, nil
	case <-c.logDone:
		_, _ = c.wait()
		return nil, fmt.Errorf("server exited before listening: %s", c.tail())
	case <-time.After(2 * time.Minute):
		_, _ = c.kill()
		return nil, fmt.Errorf("server did not listen within 2m: %s", c.tail())
	}
}

// readLog scans the server's log for the "listening on ADDR" line and keeps
// the last lines for error reports.
func (c *child) readLog(r io.Reader, ready chan<- string) {
	defer close(c.logDone)
	const marker = "oasis-server listening on "
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent {
			if i := strings.Index(line, marker); i >= 0 {
				addr, _, _ := strings.Cut(line[i+len(marker):], " ")
				ready <- addr
				sent = true
			}
		}
		c.mu.Lock()
		c.logTail = append(c.logTail, line)
		if len(c.logTail) > childLogTail {
			c.logTail = c.logTail[1:]
		}
		c.mu.Unlock()
	}
	// Drain anything past an over-long line so the child never blocks on a
	// full pipe.
	_, _ = io.Copy(io.Discard, r)
}

func (c *child) tail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.logTail, " | ")
}

func (c *child) wait() (usage, error) {
	<-c.logDone
	err := c.cmd.Wait()
	var u usage
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		u.CPUSec = tv(ru.Utime) + tv(ru.Stime)
	}
	return u, err
}

// kill SIGKILLs the server (a crash, as far as its data directories know)
// and waits for it.
func (c *child) kill() (usage, error) {
	_ = c.cmd.Process.Signal(syscall.SIGKILL)
	u, err := c.wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		err = nil // killed on purpose
	}
	return u, err
}

// stop asks the server to shut down gracefully and waits for it, killing it
// if it has not exited within a minute.
func (c *child) stop() (usage, error) {
	_ = c.cmd.Process.Signal(os.Interrupt)
	t := time.AfterFunc(time.Minute, func() { _ = c.cmd.Process.Signal(syscall.SIGKILL) })
	defer t.Stop()
	u, err := c.wait()
	if err != nil {
		return u, fmt.Errorf("server shutdown: %w: %s", err, c.tail())
	}
	return u, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
