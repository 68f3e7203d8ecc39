// Package e2e drives the real gengard daemon and gengar-cli binaries
// over loopback TCP: the deployment-shaped smoke test. It builds both
// commands from the working tree, walks a malloc/write/read/lock
// workload through the CLI, exercises hotness-driven promotion, and
// restarts the daemon to verify the snapshot path end to end.
package e2e

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinaries compiles gengard and gengar-cli into dir.
func buildBinaries(t *testing.T, dir string) (gengard, cli string) {
	t.Helper()
	gengard = filepath.Join(dir, "gengard")
	cli = filepath.Join(dir, "gengar-cli")
	for bin, pkg := range map[string]string{gengard: "gengar/cmd/gengard", cli: "gengar/cmd/gengar-cli"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = ".." // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return gengard, cli
}

// freePort reserves a loopback port and releases it for the daemon.
func freePort(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	_ = lis.Close()
	return addr
}

// daemon manages one gengard process.
type daemon struct {
	t    *testing.T
	bin  string
	addr string
	args []string
	cmd  *exec.Cmd
	log  *bytes.Buffer
}

func startDaemon(t *testing.T, bin, addr string, extra ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, bin: bin, addr: addr, args: extra}
	d.start()
	t.Cleanup(func() { d.stop() })
	return d
}

func (d *daemon) start() {
	d.t.Helper()
	args := append([]string{"-id", "1", "-listen", d.addr, "-pool-bytes", fmt.Sprint(1 << 20)}, d.args...)
	d.log = &bytes.Buffer{}
	d.cmd = exec.Command(d.bin, args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		d.t.Fatal(err)
	}
	// Wait for the listener.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", d.addr, 200*time.Millisecond)
		if err == nil {
			_ = c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.t.Fatalf("gengard never listened on %s:\n%s", d.addr, d.log)
}

// stop shuts the daemon down gracefully (SIGTERM triggers the snapshot
// path) and waits for exit.
func (d *daemon) stop() {
	d.t.Helper()
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		d.t.Fatalf("gengard did not exit on SIGTERM:\n%s", d.log)
	}
	d.cmd = nil
}

// runCLI invokes gengar-cli against the daemon and returns its stdout.
func runCLI(t *testing.T, cli, addr string, args ...string) string {
	t.Helper()
	out, err := exec.Command(cli, append([]string{"-servers", addr}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("gengar-cli %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestGengardEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds and execs real binaries")
	}
	dir := t.TempDir()
	gengard, cli := buildBinaries(t, dir)
	snap := filepath.Join(dir, "pool.snap")
	addr := freePort(t)
	// A digest interval that is not a sane positive count is refused at
	// flag parse, before the daemon sizes anything by it.
	for _, bad := range []string{"0", "-3", "1073741824"} {
		out, err := exec.Command(gengard, "-listen", addr, "-digest-every", bad).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-digest-every "+bad) {
			t.Fatalf("gengard -digest-every %s: err=%v\n%s", bad, err, out)
		}
	}
	// The flush pacer's flags are gone, not ignored: a deployment script
	// that still passes one fails at start instead of running unpaced.
	for _, gone := range [][]string{{"-flush-adaptive"}, {"-flush-max-lag", "1ms"}} {
		out, err := exec.Command(gengard, append([]string{"-listen", addr}, gone...)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined") {
			t.Fatalf("gengard %v: err=%v\n%s", gone, err, out)
		}
	}
	d := startDaemon(t, gengard, addr, "-data", snap, "-digest-every", "4")

	// malloc/write/read through the CLI.
	gaddr := strings.TrimSpace(runCLI(t, cli, addr, "malloc", "64"))
	if gaddr == "" {
		t.Fatal("malloc printed no address")
	}
	runCLI(t, cli, addr, "write", gaddr, "hello gengar")
	if got := runCLI(t, cli, addr, "read", gaddr, "12"); !strings.Contains(got, "hello gengar") {
		t.Fatalf("read back %q", got)
	}

	// The demo walks lock/unlock in both modes.
	if out := runCLI(t, cli, addr, "demo"); !strings.Contains(out, "demo ok") {
		t.Fatalf("demo: %s", out)
	}

	// Hotness-driven promotion is observable from the client: the hot
	// command digests synthetic weight and sees a cache-served read.
	if out := runCLI(t, cli, addr, "hot", gaddr); !strings.Contains(out, "served from the DRAM cache") {
		t.Fatalf("hot: %s", out)
	}

	// Stats reflect the mechanisms: staged writes and cache hits.
	stats := runCLI(t, cli, addr, "stats")
	if !strings.Contains(stats, "hits") || !strings.Contains(stats, "staged") {
		t.Fatalf("stats missing mechanism columns:\n%s", stats)
	}

	// Restarting the daemon restores the pool from its shutdown snapshot.
	d.stop()
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no snapshot after shutdown: %v\n%s", err, d.log)
	}
	d.start()
	if got := runCLI(t, cli, addr, "read", gaddr, "12"); !strings.Contains(got, "hello gengar") {
		t.Fatalf("data lost across daemon restart: %q", got)
	}
	// The allocation survived too: freeing it twice fails the second time.
	runCLI(t, cli, addr, "free", gaddr)
	if out, err := exec.Command(cli, "-servers", addr, "free", gaddr).CombinedOutput(); err == nil {
		t.Fatalf("double free accepted after restart: %s", out)
	}
}
