// Command smoke is the zend end-to-end smoke check behind
// scripts/serve_smoke.sh (and `make serve-smoke`): it starts a zend
// binary on a random port, exercises the service surface — model
// listing, a cold query, a cached repeat, a deadline-expired query, a
// batch, instance creation, a /v1/update delta, error accounting for a
// failed and a malformed query, the lint endpoint — and
// asserts a clean SIGTERM drain plus a snapshot-warm restart.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

var (
	base    string    // current zend base URL, set by start
	running *exec.Cmd // current zend process, killed by fatal
)

func main() {
	zend := flag.String("zend", "", "path to the zend binary")
	flag.Parse()
	if *zend == "" {
		fatal("usage: smoke -zend /path/to/zend")
	}
	snapDir, err := os.MkdirTemp("", "zend-snap")
	if err != nil {
		fatal("snapshot dir: %v", err)
	}
	defer os.RemoveAll(snapDir)

	cmd := start(*zend, snapDir)
	defer cmd.Process.Kill()

	code, body := get("/v1/models")
	expect("/v1/models lists demo models", code, body, `"demo/add8"`)

	find := `{"model":"demo/add8","kind":"find","predicate":{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":7}}}}`
	code, body = post("/v1/query", find)
	expect("cold find is sat", code, body, `"verdict": "sat"`)
	if !strings.Contains(body, `"provenance": "cold"`) {
		fatal("cold query not marked cold:\n%s", body)
	}
	code, body = post("/v1/query", find)
	expect("repeat find hits the cache", code, body, `"provenance": "cached"`)

	slow := `{"model":"demo/square32","kind":"find","timeout_ms":100,"predicate":{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":3037000493}}}}`
	startT := time.Now()
	code, body = post("/v1/query", slow)
	if elapsed := time.Since(startT); elapsed > 5*time.Second {
		fatal("deadline query took %v", elapsed)
	}
	expect("expensive find is cancelled at its deadline", code, body, `"verdict": "cancelled"`)

	batch := `{"queries":[
		{"model":"demo/add8","kind":"evaluate","args":[41]},
		{"model":"demo/add8","kind":"verify","predicate":{"cmp":{"lhs":{"ref":"out"},"op":"ne","rhs":{"ref":"in"}}}},
		"not an object"
	]}`
	code, body = post("/v1/batch", batch)
	expect("batch evaluate", code, body, `"value": 42`)
	expect("batch verify", code, body, `"verdict": "valid"`)
	expect("malformed batch item fails alone", code, body, `"code": "bad_request"`)

	// Mutable instance lifecycle: create, query (tracked), delta update.
	inst := `{"name":"smoke/acl","family":"acl","rules":[{"Permit":true,"DstLow":80,"DstHigh":80}]}`
	code, body = post("/v1/instances", inst)
	expect("instance create", code, body, `"verdict": "created"`)
	q80 := `{"model":"smoke/acl","kind":"find","predicate":{"all":[{"ref":"out"},{"cmp":{"lhs":{"ref":"in.DstPort"},"op":"eq","rhs":{"lit":80}}}]}}`
	code, body = post("/v1/query", q80)
	expect("instance query is sat", code, body, `"verdict": "sat"`)
	update := `{"instance":"smoke/acl","deltas":[{"op":"modify","index":0,"rule":{"Permit":false,"DstLow":80,"DstHigh":80}}]}`
	code, body = post("/v1/update", update)
	expect("update applies a delta", code, body, `"verdict": "updated"`)
	expect("update re-answers tracked queries", code, body, `"provenance": "delta"`)
	code, body = post("/v1/query", q80)
	expect("tracked query flipped by the delta", code, body, `"verdict": "unsat"`)

	// Error accounting: one failed query moves the errors counter by
	// exactly one.
	errorsBefore := statsErrors()
	code, body = post("/v1/query", `{"model":"no/such-model","kind":"find","predicate":{"ref":"out"}}`)
	if code != http.StatusNotFound || !strings.Contains(body, `"unknown_model"`) {
		fatal("unknown model query: HTTP %d, want 404 with unknown_model:\n%s", code, body)
	}
	if moved := statsErrors() - errorsBefore; moved != 1 {
		fatal("one failed query moved /v1/stats errors by %d, want 1", moved)
	}
	fmt.Println("ok: a failed query counts one error")

	// A query body that fails to decode is a failed query too, and it
	// reaches the process-wide aggregate as well as /v1/stats.
	errorsBefore, globalBefore := statsErrors(), globalErrors()
	code, body = post("/v1/query", `{"model":`)
	if code != http.StatusBadRequest || !strings.Contains(body, `"bad_request"`) {
		fatal("malformed query: HTTP %d, want 400 with bad_request:\n%s", code, body)
	}
	if moved := statsErrors() - errorsBefore; moved != 1 {
		fatal("one malformed query moved /v1/stats errors by %d, want 1", moved)
	}
	if moved := globalErrors() - globalBefore; moved != 1 {
		fatal("one malformed query moved /debug/zenstats serve.errors by %d, want 1", moved)
	}
	fmt.Println("ok: a malformed query counts one error in both counters")

	code, body = get("/v1/lint?model=demo/add8")
	expect("lint endpoint", code, body, `"findings"`)

	code, body = get("/v1/stats")
	expect("stats endpoint", code, body, `"cache_hits"`)
	var stats struct {
		Queries   int64 `json:"queries"`
		CacheHits int64 `json:"cache_hits"`
		Cancelled int64 `json:"cancelled"`
		Updates   int64 `json:"updates"`
	}
	if err := json.NewDecoder(bytes.NewReader([]byte(body))).Decode(&stats); err != nil {
		fatal("stats decode: %v", err)
	}
	if stats.Queries < 5 || stats.CacheHits < 1 || stats.Cancelled != 1 || stats.Updates != 1 {
		fatal("stats counters off: %+v", stats)
	}

	code, body = get("/debug/zenstats")
	expect("debug telemetry includes serve counters", code, body, `"serve"`)

	// Clean shutdown: SIGTERM must drain and exit 0 within the drain
	// budget — and write the snapshot for the restart below.
	stop(cmd)
	fmt.Println("ok: clean shutdown on SIGTERM")

	// A restarted zend over the same snapshot dir answers the earlier
	// registry query from the persisted snapshot: no cold solve.
	cmd = start(*zend, snapDir)
	defer cmd.Process.Kill()
	code, body = post("/v1/query", find)
	expect("restart answers from snapshot", code, body, `"from_snapshot": true`)
	stop(cmd)
	fmt.Println("ok: snapshot-warm restart")
	fmt.Println("serve smoke passed")
}

// start launches zend on a random port and waits for its bound address.
func start(zend, snapDir string) *exec.Cmd {
	cmd := exec.Command(zend, "-addr", "localhost:0", "-drain", "10s",
		"-default-timeout", "10s", "-snapshot-dir", snapDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fatal("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatal("start zend: %v", err)
	}
	// zend prints "zend: serving on http://ADDR (...)" once bound.
	sc := bufio.NewScanner(stdout)
	base = ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			base = strings.Fields(line[i:])[0]
			break
		}
	}
	if base == "" {
		fatal("zend never reported its address")
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	running = cmd
	return cmd
}

// stop SIGTERMs zend and asserts a clean drain within the budget.
func stop(cmd *exec.Cmd) {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fatal("signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			fatal("zend exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		fatal("zend did not exit within 15s of SIGTERM")
	}
}

// statsErrors reads the errors counter from /v1/stats.
func statsErrors() int64 {
	code, body := get("/v1/stats")
	var stats struct {
		Errors *int64 `json:"errors"`
	}
	if err := json.Unmarshal([]byte(body), &stats); code != http.StatusOK || err != nil || stats.Errors == nil {
		fatal("/v1/stats errors: HTTP %d, %v:\n%s", code, err, body)
	}
	return *stats.Errors
}

// globalErrors reads the serve errors counter of the process-wide
// aggregate from /debug/zenstats.
func globalErrors() int64 {
	code, body := get("/debug/zenstats")
	var snap struct {
		Serve struct {
			Errors *int64 `json:"errors"`
		} `json:"serve"`
	}
	if err := json.Unmarshal([]byte(body), &snap); code != http.StatusOK || err != nil || snap.Serve.Errors == nil {
		fatal("/debug/zenstats serve.errors: HTTP %d, %v:\n%s", code, err, body)
	}
	return *snap.Serve.Errors
}

func get(path string) (int, string) {
	resp, err := http.Get(base + path)
	if err != nil {
		fatal("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func post(path, body string) (int, string) {
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		fatal("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func expect(what string, code int, body, want string) {
	if code != http.StatusOK || !strings.Contains(body, want) {
		fatal("%s: HTTP %d, want 200 with %q:\n%s", what, code, want, body)
	}
	fmt.Printf("ok: %s\n", what)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "serve smoke: "+format+"\n", args...)
	// os.Exit skips defers; kill zend explicitly so a failed check can't
	// leave an orphan holding our stdout pipe open.
	if running != nil {
		running.Process.Kill()
	}
	os.Exit(1)
}
