package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// histd is one running cmd/histd process on loopback. The benchmark
// passes no tuning flags, so the worker pool, queue and sieve fan-out
// are the served defaults (workers = GOMAXPROCS).
type histd struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	http   *http.Client
	stderr *bytes.Buffer
	exited chan error
}

// startHistd execs the binary on an ephemeral loopback port and returns
// once the listener address is known. traceJSON, when non-empty, turns
// on the server's -trace-json stage-event sink.
func startHistd(bin, traceJSON string) (*histd, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if traceJSON != "" {
		args = append(args, "-trace-json", traceJSON)
	}
	cmd := exec.Command(bin, args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting histd: %w", err)
	}
	h := &histd{cmd: cmd, stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Copy the server log until it exits; the first line names the
		// resolved listen address.
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			h.stderr.WriteString(line + "\n")
			if !sent {
				if _, url, ok := strings.Cut(line, "listening on "); ok {
					addr <- url
					sent = true
				}
			}
		}
		if !sent {
			close(addr)
		}
		h.exited <- cmd.Wait()
	}()
	select {
	case url, ok := <-addr:
		if !ok {
			err := <-h.exited
			return nil, fmt.Errorf("histd exited before listening: %v", err)
		}
		h.base = url
	case <-time.After(20 * time.Second):
		h.kill()
		return nil, errors.New("histd did not report a listen address within 20s")
	}
	h.http = newClient()
	return h, nil
}

// newClient is the raw load-generator client: no retries, at most two
// connections (the machine's two cores), no compression.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// waitHealthy polls /healthz until it answers 200.
func (h *histd) waitHealthy() error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := h.http.Get(h.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("histd never became healthy")
}

// do sends one request and reads the full response.
func (h *histd) do(ctx context.Context, method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := h.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// post sends a set-up request, requires a 2xx answer and decodes it
// into out when out is non-nil.
func (h *histd) post(path, ctype string, body []byte, out any) error {
	code, resp, err := h.do(context.Background(), http.MethodPost, path, ctype, body)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	if code/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, code, bytes.TrimSpace(resp))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp, out)
}

// debugVars reads the integer counters of /debug/vars.
func (h *histd) debugVars() (map[string]int64, error) {
	code, body, err := h.do(context.Background(), http.MethodGet, "/debug/vars", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: status %d", code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for k, v := range raw {
		var n int64
		if json.Unmarshal(v, &n) == nil {
			out[k] = n
		}
	}
	return out, nil
}

// cpuTicks returns the process's utime+stime in clock ticks.
func (h *histd) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", h.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the full line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return ut + st, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc stat CPU times;
// it is 100 on every Linux platform Go supports.
const clockTick = 100

// peakRSSMB returns VmHWM, the process's resident-set high-water mark.
func (h *histd) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", h.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line")
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than the server's own drain budget.
func (h *histd) stop() error {
	h.http.CloseIdleConnections()
	_ = h.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-h.exited:
		if err != nil {
			return fmt.Errorf("histd exit: %v\n%s", err, h.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		h.kill()
		return errors.New("histd did not drain within 30s")
	}
}

// kill ends the process at once and waits for it.
func (h *histd) kill() {
	_ = h.cmd.Process.Kill()
	<-h.exited
}
