package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one quantiled process under test.
type daemon struct {
	name    string
	args    []string
	base    string // http://127.0.0.1:port
	binAddr string // binary ingest TCP address, "" when not listening
	logPath string

	cmd  *exec.Cmd
	done chan struct{}
}

// procs owns every daemon the benchmark starts, so that any exit path can
// stop them all and wait for them.
type procs struct {
	bin  string
	work string

	mu   sync.Mutex
	live map[*daemon]bool
}

func newProcs(bin, work string) *procs {
	return &procs{bin: bin, work: work, live: make(map[*daemon]bool)}
}

// freeAddrs reserves n distinct loopback ports by binding all of them
// before releasing any: a port released early could be handed out again by
// the next bind.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// newDaemon prepares a daemon listening on fresh loopback ports; flags are
// appended after -addr (and -bin-addr when withBin).
func (p *procs) newDaemon(name string, withBin bool, flags ...string) (*daemon, error) {
	n := 1
	if withBin {
		n = 2
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, base: "http://" + addrs[0], logPath: filepath.Join(p.work, name+".log")}
	d.args = append(d.args, "-addr", addrs[0])
	if withBin {
		d.binAddr = addrs[1]
		d.args = append(d.args, "-bin-addr", d.binAddr)
	}
	d.args = append(d.args, flags...)
	return d, nil
}

// start launches (or relaunches, after kill) the daemon process.
func (p *procs) start(d *daemon) error {
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(p.bin, d.args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark itself is
	// killed before it can clean up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", d.name, err)
	}
	d.cmd = cmd
	d.done = make(chan struct{})
	go func(done chan struct{}) {
		_ = cmd.Wait()
		close(done)
	}(d.done)
	p.mu.Lock()
	p.live[d] = true
	p.mu.Unlock()
	return nil
}

// kill sends SIGKILL (a crash, not a shutdown) and waits for the exit.
func (p *procs) kill(d *daemon) {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	d.cmd = nil
	p.mu.Lock()
	delete(p.live, d)
	p.mu.Unlock()
}

// stopAll kills every daemon still running.
func (p *procs) stopAll() {
	p.mu.Lock()
	var ds []*daemon
	for d := range p.live {
		ds = append(ds, d)
	}
	p.mu.Unlock()
	for _, d := range ds {
		p.kill(d)
	}
}

var healthClient = &http.Client{Timeout: 2 * time.Second}

const tightPoll = 50 * time.Millisecond

// binListening reports whether the daemon's binary ingest port, if it has
// one, accepts a connection. quantiled opens it beside the HTTP port, not
// before it, so a healthy /healthz does not mean a dial to it will succeed.
func binListening(d *daemon) bool {
	if d.binAddr == "" {
		return true
	}
	conn, err := net.DialTimeout("tcp", d.binAddr, time.Second)
	if err != nil {
		return false
	}
	conn.Close()
	return true
}

// waitHealthy polls /healthz until it answers 200 and the binary ingest
// port, if any, accepts connections, or until the daemon exits. It polls
// back to back for the first tightPoll, where a launch usually completes and
// a sleep's granularity would dominate the measurement, then every
// millisecond so a long recovery is not slowed by the poller.
func waitHealthy(ctx context.Context, d *daemon, timeout time.Duration) error {
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := healthClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && binListening(d) {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before becoming healthy (see %s)", d.name, d.logPath)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Since(start) > tightPoll {
			time.Sleep(time.Millisecond)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v (see %s)", d.name, timeout, d.logPath)
		}
	}
}

// vmHWM reads the daemon's peak resident set (VmHWM) in MiB.
func vmHWM(d *daemon) (float64, error) { return procStatusMiB(d, "VmHWM:") }

// procStatusMiB reads one kB-valued field of /proc/<pid>/status in MiB.
func procStatusMiB(d *daemon, field string) (float64, error) {
	if d.cmd == nil {
		return 0, fmt.Errorf("%s: %s not running", field, d.name)
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s parse %q: %w", field, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line for %s", field, d.name)
}

// rssSampler records the daemons' summed VmRSS every 100ms while a phase
// runs. Its median is the resident memory the phase holds; the peak
// (VmHWM) also depends on when the daemon's garbage collector happened to
// run, and swings by a third between runs of the same query mix.
type rssSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	mib    []float64
}

func sampleRSS(ds ...*daemon) *rssSampler {
	s := &rssSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var sum float64
			for _, d := range ds {
				v, err := procStatusMiB(d, "VmRSS:")
				if err != nil {
					return
				}
				sum += v
			}
			s.mib = append(s.mib, sum)
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median and the sample count.
func (s *rssSampler) stop() (float64, int) {
	close(s.stopCh)
	<-s.done
	return median(s.mib), len(s.mib)
}

// cpuNanos sums the CPU time the daemons' threads have run, in
// nanoseconds, from /proc/<pid>/task/<tid>/schedstat. That counter is exact
// where /proc/<pid>/stat rounds to 10 ms ticks, so short windows can be
// timed. With paravirtual steal accounting the kernel leaves time the host
// took away out of it, so a cost measured with it holds still on a shared
// host where wall-clock rates do not. The Go runtime keeps its threads for
// the life of the process, so the live threads carry all of its CPU time.
func cpuNanos(ds ...*daemon) (float64, error) {
	var total float64
	for _, d := range ds {
		if d.cmd == nil {
			return 0, fmt.Errorf("cpuNanos: %s not running", d.name)
		}
		dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
			if err != nil {
				continue // the thread ended between the listing and the read
			}
			f := strings.Fields(string(b))
			if len(f) == 0 {
				return 0, fmt.Errorf("cpuNanos: empty schedstat for %s", d.name)
			}
			ns, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("cpuNanos: bad schedstat for %s: %w", d.name, err)
			}
			total += ns
		}
	}
	return total, nil
}

// cpuMeter times the daemons' CPU cost per unit of work over a phase split
// into windows, and reports the median of the per-window costs, so a
// garbage-collection cycle or a burst of host contention spoils one window,
// not the figure.
type cpuMeter struct {
	ds    []*daemon
	start float64
	costs []float64 // nanoseconds per unit, one per closed window
	units int
}

func newCPUMeter(ds ...*daemon) (*cpuMeter, error) {
	m := &cpuMeter{}
	return m, m.begin(ds...)
}

// begin opens a window over the daemons ds, which replace the meter's
// daemons: a phase repeated on fresh daemons adds one window per repeat.
func (m *cpuMeter) begin(ds ...*daemon) error {
	c, err := cpuNanos(ds...)
	m.ds, m.start = ds, c
	return err
}

// window closes the open window, in which units of work were done, and
// opens the next.
func (m *cpuMeter) window(units int) error {
	c, err := cpuNanos(m.ds...)
	if err != nil {
		return err
	}
	if units > 0 {
		m.costs = append(m.costs, (c-m.start)/float64(units))
		m.units += units
	}
	m.start = c
	return nil
}

// finish closes a last, partial window of units only when no window has
// closed yet, so a short phase still reports a cost.
func (m *cpuMeter) finish(units int) error {
	if len(m.costs) > 0 {
		return nil
	}
	return m.window(units)
}

// perUnit is the median window's nanoseconds per unit of work.
func (m *cpuMeter) perUnit() float64 { return median(m.costs) }
