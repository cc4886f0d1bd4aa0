package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running estocada-serve process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan error // receives cmd.Wait's result once the process ended
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launchServer starts estocada-serve with its production defaults on the
// marketplace scenario and returns once /healthz answers 200, with the
// time that took (the set-up time).
func launchServer(bin, logPath string, users int) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-scenario", "marketplace", "-variant", "materialized", "-users", strconv.Itoa(users))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Since(start) < 120*time.Second {
		select {
		case err := <-s.exited:
			s.exited <- err
			s.stop()
			return nil, 0, fmt.Errorf("estocada-serve exited during set-up: %v (log: %s)", err, logPath)
		default:
		}
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("estocada-serve did not answer /healthz within 120s")
}

// stop kills the server and waits until it has exited.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.exited
	s.log.Close()
}

// cpuTime is the server's user + system CPU time so far.
func (s *serverProc) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times: %v %v", err1, err2)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// peakRSS is the server's resident-set high-water mark (VmHWM) in bytes.
func (s *serverProc) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// hostCPU reads the machine's CPU time from /proc/stat, in clock ticks:
// the total (user to steal) and the part the hypervisor gave to other
// guests while this one wanted to run (steal).
func hostCPU() (total, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:9] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
