package satcheck_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"satcheck"
)

// buildTools compiles the command-line tools once per test binary and
// returns the directory holding them.
var buildTools = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "satcheck-cli-*")
	if err != nil {
		return "", err
	}
	for _, tool := range []string{"zsat", "zverify", "zcore", "zgen", "zproof", "zcheckd", "zcheck"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return "", &buildError{tool: tool, out: string(out), err: err}
		}
	}
	return dir, nil
})

type buildError struct {
	tool string
	out  string
	err  error
}

func (e *buildError) Error() string {
	return "building " + e.tool + ": " + e.err.Error() + "\n" + e.out
}

// runTool executes a built tool, returning stdout+stderr and exit code.
func runTool(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	dir, err := buildTools()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(dir, bin), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return string(out), code
}

// TestCLISolveVerifyPipeline drives the full production flow: generate a
// benchmark, solve with a trace file, verify with all three checkers,
// extract the core, export and re-check a TraceCheck proof.
func TestCLISolveVerifyPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	cnfPath := filepath.Join(work, "inst.cnf")
	tracePath := filepath.Join(work, "inst.trace")

	out, code := runTool(t, "zgen", "-family", "php", "-n", "5", "-o", cnfPath)
	if code != 0 {
		t.Fatalf("zgen: %s", out)
	}

	out, code = runTool(t, "zsat", "-trace", tracePath, "-stats", cnfPath)
	if code != 20 {
		t.Fatalf("zsat exit %d (want 20=UNSAT): %s", code, out)
	}
	if !strings.Contains(out, "s UNSATISFIABLE") {
		t.Fatalf("zsat output: %s", out)
	}
	if !strings.Contains(out, "trace-bytes=") {
		t.Errorf("zsat -stats missing trace-bytes: %s", out)
	}

	for _, method := range []string{"df", "bf", "hybrid"} {
		out, code = runTool(t, "zverify", "-method", method, cnfPath, tracePath)
		if code != 0 {
			t.Fatalf("zverify -method %s exit %d: %s", method, code, out)
		}
		if !strings.Contains(out, "PROOF VALID") {
			t.Errorf("zverify %s output: %s", method, out)
		}
	}

	out, code = runTool(t, "zcore", "-v", cnfPath)
	if code != 0 {
		t.Fatalf("zcore exit %d: %s", code, out)
	}
	if !strings.Contains(out, "iterations") {
		t.Errorf("zcore output: %s", out)
	}

	tcPath := filepath.Join(work, "inst.tc")
	out, code = runTool(t, "zproof", "export", "-cnf", cnfPath, "-trace", tracePath, "-o", tcPath)
	if code != 0 {
		t.Fatalf("zproof export exit %d: %s", code, out)
	}
	out, code = runTool(t, "zproof", "check", "-cnf", cnfPath, tcPath)
	if code != 0 || !strings.Contains(out, "PROOF VALID") {
		t.Fatalf("zproof check exit %d: %s", code, out)
	}
	out, code = runTool(t, "zproof", "stats", "-cnf", cnfPath, "-trace", tracePath)
	if code != 0 || !strings.Contains(out, "proof depth") {
		t.Fatalf("zproof stats exit %d: %s", code, out)
	}

	trimmedPath := filepath.Join(work, "trimmed.trace")
	out, code = runTool(t, "zproof", "trim", "-cnf", cnfPath, "-trace", tracePath, "-o", trimmedPath)
	if code != 0 || !strings.Contains(out, "kept") {
		t.Fatalf("zproof trim exit %d: %s", code, out)
	}
	out, code = runTool(t, "zverify", "-method", "bf", cnfPath, trimmedPath)
	if code != 0 || !strings.Contains(out, "PROOF VALID") {
		t.Fatalf("zverify on trimmed trace exit %d: %s", code, out)
	}

	out, code = runTool(t, "zproof", "interpolate", "-cnf", cnfPath, "-trace", tracePath, "-split", "3")
	if code != 0 || !strings.Contains(out, "INTERPOLANT VERIFIED") {
		t.Fatalf("zproof interpolate exit %d: %s", code, out)
	}
}

// TestCLIBinaryGzipTrace exercises the alternate encodings end to end.
func TestCLIBinaryGzipTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	cnfPath := filepath.Join(work, "inst.cnf")
	if out, code := runTool(t, "zgen", "-family", "tseitin", "-n", "10", "-seed", "4", "-o", cnfPath); code != 0 {
		t.Fatalf("zgen: %s", out)
	}
	for _, args := range [][]string{
		{"-format", "binary"},
		{"-format", "ascii", "-gzip"},
		{"-format", "binary", "-gzip"},
	} {
		tracePath := filepath.Join(work, "t"+strings.Join(args, "")+".trace")
		full := append(append([]string{"-trace", tracePath}, args...), cnfPath)
		if out, code := runTool(t, "zsat", full...); code != 20 {
			t.Fatalf("zsat %v exit %d: %s", args, code, out)
		}
		if out, code := runTool(t, "zverify", "-method", "bf", cnfPath, tracePath); code != 0 {
			t.Fatalf("zverify on %v trace exit %d: %s", args, code, out)
		}
	}
}

// TestCLISatModel verifies the SAT path: exit code 10 and a model line.
func TestCLISatModel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	cnfPath := filepath.Join(work, "sat.cnf")
	if err := os.WriteFile(cnfPath, []byte("p cnf 2 2\n1 2 0\n-1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runTool(t, "zsat", "-model", cnfPath)
	if code != 10 {
		t.Fatalf("zsat exit %d (want 10=SAT): %s", code, out)
	}
	if !strings.Contains(out, "v -1 2 0") {
		t.Errorf("model line missing or wrong: %s", out)
	}
	// WalkSAT mode reaches the same verdict with a verified model.
	out, code = runTool(t, "zsat", "-local", "-model", cnfPath)
	if code != 10 || !strings.Contains(out, "v -1 2 0") {
		t.Errorf("zsat -local: exit %d, out %s", code, out)
	}
	// zcore on a satisfiable formula exits 3.
	out, code = runTool(t, "zcore", cnfPath)
	if code != 3 || !strings.Contains(out, "SATISFIABLE") {
		t.Errorf("zcore on SAT: exit %d, out %s", code, out)
	}
}

// TestCLIMinimalCore exercises zcore -mus end to end.
func TestCLIMinimalCore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	cnfPath := filepath.Join(work, "sched.cnf")
	if out, code := runTool(t, "zgen", "-family", "sched", "-n", "10", "-aux", "3", "-o", cnfPath); code != 0 {
		t.Fatalf("zgen: %s", out)
	}
	musPath := filepath.Join(work, "mus.cnf")
	out, code := runTool(t, "zcore", "-mus", "-out", musPath, cnfPath)
	if code != 0 || !strings.Contains(out, "minimal unsatisfiable subformula") {
		t.Fatalf("zcore -mus exit %d: %s", code, out)
	}
	// The written MUS must itself be UNSAT.
	out, code = runTool(t, "zsat", musPath)
	if code != 20 {
		t.Fatalf("zsat on MUS exit %d: %s", code, out)
	}
}

// TestCLIVerifyRejectsCorruptTrace checks the failure path and exit code 2.
func TestCLIVerifyRejectsCorruptTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	cnfPath := filepath.Join(work, "inst.cnf")
	tracePath := filepath.Join(work, "inst.trace")
	if out, code := runTool(t, "zgen", "-family", "php", "-n", "4", "-o", cnfPath); code != 0 {
		t.Fatalf("zgen: %s", out)
	}
	if out, code := runTool(t, "zsat", "-trace", tracePath, cnfPath); code != 20 {
		t.Fatalf("zsat: %s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the final-conflict line.
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var kept []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "C ") {
			kept = append(kept, l)
		}
	}
	if err := os.WriteFile(tracePath, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runTool(t, "zverify", cnfPath, tracePath)
	if code != 2 || !strings.Contains(out, "CHECK FAILED") {
		t.Errorf("zverify on corrupt trace: exit %d, out %s", code, out)
	}
}

// TestCLIVerifyExitCodes pins the exit-code contract: 2 is reserved for
// "proof rejected" alone, so usage and flag errors must exit 1. (An earlier
// version used flag.ExitOnError, whose exit 2 on a bad flag was
// indistinguishable from a check failure to calling scripts.)
func TestCLIVerifyExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	out, code := runTool(t, "zverify", "-no-such-flag")
	if code != 1 {
		t.Errorf("zverify with bad flag: exit %d (want 1), out %s", code, out)
	}
	out, code = runTool(t, "zverify", "-method", "nope", "a.cnf", "b.trace")
	if code != 1 {
		t.Errorf("zverify with bad method: exit %d (want 1), out %s", code, out)
	}
	out, code = runTool(t, "zverify", "/nonexistent/f.cnf", "/nonexistent/p.trace")
	if code != 1 {
		t.Errorf("zverify with missing files: exit %d (want 1), out %s", code, out)
	}
	out, code = runTool(t, "zverify")
	if code != 1 || !strings.Contains(out, "usage:") {
		t.Errorf("zverify with no args: exit %d (want 1 + usage), out %s", code, out)
	}
}

// TestCLIVerifyFailureOutput checks that a rejected proof produces the
// machine-readable kind= line alongside the human verdict.
func TestCLIVerifyFailureOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	cnfPath := filepath.Join(work, "inst.cnf")
	tracePath := filepath.Join(work, "inst.trace")
	if out, code := runTool(t, "zgen", "-family", "php", "-n", "4", "-o", cnfPath); code != 0 {
		t.Fatalf("zgen: %s", out)
	}
	if out, code := runTool(t, "zsat", "-trace", tracePath, cnfPath); code != 20 {
		t.Fatalf("zsat: %s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var kept []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "C ") {
			kept = append(kept, l)
		}
	}
	if err := os.WriteFile(tracePath, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runTool(t, "zverify", "-method", "bf", cnfPath, tracePath)
	if code != 2 {
		t.Fatalf("zverify on truncated trace: exit %d, out %s", code, out)
	}
	if !strings.Contains(out, "CHECK FAILED") || !strings.Contains(out, "kind=") {
		t.Errorf("failure output missing verdict or kind= line: %s", out)
	}
}

// startDaemon launches zcheckd on an ephemeral port and returns its base URL
// plus the running process. The daemon prints a parseable
// "zcheckd: listening on http://HOST:PORT" line to stdout before serving.
func startDaemon(t *testing.T, extraArgs ...string) (string, *exec.Cmd) {
	t.Helper()
	dir, err := buildTools()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-quiet"}, extraArgs...)
	cmd := exec.Command(filepath.Join(dir, "zcheckd"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading zcheckd banner: %v", err)
	}
	const prefix = "zcheckd: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected zcheckd banner: %q", line)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, prefix)), cmd
}

// TestCLICheckDaemonEndToEnd drives the client/daemon pair over loopback:
// a valid proof verifies (exit 0), a fault-injected trace is rejected with a
// structured verdict (exit 2, kind= line), and SIGTERM drains cleanly.
func TestCLICheckDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	cnfPath := filepath.Join(work, "inst.cnf")
	tracePath := filepath.Join(work, "inst.trace")
	if out, code := runTool(t, "zgen", "-family", "php", "-n", "5", "-o", cnfPath); code != 0 {
		t.Fatalf("zgen: %s", out)
	}
	if out, code := runTool(t, "zsat", "-trace", tracePath, cnfPath); code != 20 {
		t.Fatalf("zsat: %s", out)
	}

	addr, cmd := startDaemon(t)

	for _, method := range []string{"df", "bf", "hybrid"} {
		out, code := runTool(t, "zcheck", "-addr", addr, "-method", method, "-analyze", cnfPath, tracePath)
		if code != 0 {
			t.Fatalf("zcheck -method %s exit %d: %s", method, code, out)
		}
		if !strings.Contains(out, "PROOF VALID") {
			t.Errorf("zcheck %s output: %s", method, out)
		}
	}
	// The repeat of an identical request must be served from the cache.
	out, code := runTool(t, "zcheck", "-addr", addr, "-method", "df", "-analyze", cnfPath, tracePath)
	if code != 0 || !strings.Contains(out, "[cached]") {
		t.Errorf("repeat request not cached: exit %d, out %s", code, out)
	}

	// A structurally corrupted trace (final conflict removed) must come back
	// as a structured rejection — exit 2 with a kind= line, not a transport
	// or server error.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(l, "C ") {
			kept = append(kept, l)
		}
	}
	badPath := filepath.Join(work, "bad.trace")
	if err := os.WriteFile(badPath, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runTool(t, "zcheck", "-addr", addr, cnfPath, badPath)
	if code != 2 {
		t.Fatalf("zcheck on corrupt trace: exit %d (want 2), out %s", code, out)
	}
	if !strings.Contains(out, "CHECK FAILED") || !strings.Contains(out, "kind=") {
		t.Errorf("rejection output missing verdict or kind= line: %s", out)
	}

	// Client-side usage errors exit 1, mirroring zverify's contract.
	if out, code := runTool(t, "zcheck", "-no-such-flag"); code != 1 {
		t.Errorf("zcheck with bad flag: exit %d (want 1), out %s", code, out)
	}

	// SIGTERM drains the daemon: the process must exit 0 on its own.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("zcheckd did not drain cleanly: %v", err)
	}
}

// TestCLIGenList sanity-checks the generator catalogue.
func TestCLIGenList(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	out, code := runTool(t, "zgen", "-list")
	if code != 0 {
		t.Fatalf("zgen -list exit %d", code)
	}
	for _, fam := range []string{"php", "tseitin", "cec-adder", "cec-mult", "alu", "bmc-counter", "fpga", "sched", "rand3"} {
		if !strings.Contains(out, fam) {
			t.Errorf("family %s missing from -list:\n%s", fam, out)
		}
	}
	if out, code := runTool(t, "zgen", "-family", "nope"); code == 0 {
		t.Errorf("unknown family accepted: %s", out)
	}
}

// TestCLIDRUPPipeline drives the clausal-proof flow end to end: solve with
// -drup, verify the DRUP file forward (bf) and backward (hybrid), bridge it
// to LRAT and re-check with the hint-following verifier, run the clausal
// stats, and pin the exit-code contract across all tools — flag and usage
// errors exit 1, a rejected proof exits 2 with a kind= line, exactly like
// the native path.
func TestCLIDRUPPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	cnfPath := filepath.Join(work, "inst.cnf")
	drupPath := filepath.Join(work, "inst.drup")

	if out, code := runTool(t, "zgen", "-family", "php", "-n", "5", "-o", cnfPath); code != 0 {
		t.Fatalf("zgen: %s", out)
	}
	out, code := runTool(t, "zsat", "-drup", drupPath, "-stats", cnfPath)
	if code != 20 {
		t.Fatalf("zsat -drup exit %d (want 20=UNSAT): %s", code, out)
	}
	if !strings.Contains(out, "drup-bytes=") {
		t.Errorf("zsat -stats missing drup-bytes: %s", out)
	}

	// bf checks forward, hybrid checks backward; both must accept, and the
	// backward mode must surface an unsat core like its native counterpart.
	for _, method := range []string{"bf", "hybrid"} {
		out, code = runTool(t, "zverify", "-format", "drat", "-method", method, cnfPath, drupPath)
		if code != 0 {
			t.Fatalf("zverify -format drat -method %s exit %d: %s", method, code, out)
		}
		if !strings.Contains(out, "PROOF VALID") || !strings.Contains(out, "format=drat") {
			t.Errorf("zverify -format drat %s output: %s", method, out)
		}
	}
	if !strings.Contains(out, "core:") {
		t.Errorf("backward DRAT check printed no core: %s", out)
	}

	// A truncated proof (empty-clause derivation lost) is a structured
	// rejection: exit 2 with a kind= line, not a usage error.
	data, err := os.ReadFile(drupPath)
	if err != nil {
		t.Fatal(err)
	}
	half := data[:len(data)/2]
	if i := strings.LastIndexByte(string(half), '\n'); i > 0 {
		half = half[:i+1]
	}
	truncPath := filepath.Join(work, "trunc.drup")
	if err := os.WriteFile(truncPath, half, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runTool(t, "zverify", "-format", "drat", cnfPath, truncPath)
	if code != 2 {
		t.Fatalf("zverify on truncated DRUP: exit %d (want 2): %s", code, out)
	}
	if !strings.Contains(out, "CHECK FAILED") || !strings.Contains(out, "kind=") {
		t.Errorf("rejection output missing verdict or kind= line: %s", out)
	}

	// Bridge to LRAT via the library and re-check with both front ends.
	f, err := satcheck.ParseDimacsFile(cnfPath)
	if err != nil {
		t.Fatal(err)
	}
	var lrat bytes.Buffer
	if _, err := satcheck.DRATToLRAT(f, satcheck.ProofFileSource(drupPath), &lrat, satcheck.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	lratPath := filepath.Join(work, "inst.lrat")
	if err := os.WriteFile(lratPath, lrat.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runTool(t, "zverify", "-format", "lrat", cnfPath, lratPath)
	if code != 0 || !strings.Contains(out, "PROOF VALID") {
		t.Fatalf("zverify -format lrat exit %d: %s", code, out)
	}
	out, code = runTool(t, "zproof", "check", "-cnf", cnfPath, "-format", "lrat", lratPath)
	if code != 0 || !strings.Contains(out, "PROOF VALID (lrat)") {
		t.Fatalf("zproof check -format lrat exit %d: %s", code, out)
	}
	out, code = runTool(t, "zproof", "check", "-cnf", cnfPath, "-format", "drat", drupPath)
	if code != 0 || !strings.Contains(out, "PROOF VALID (drat)") {
		t.Fatalf("zproof check -format drat exit %d: %s", code, out)
	}
	out, code = runTool(t, "zproof", "check", "-cnf", cnfPath, "-format", "drat", truncPath)
	if code != 2 || !strings.Contains(out, "kind=") {
		t.Fatalf("zproof check on truncated DRUP: exit %d (want 2): %s", code, out)
	}

	// An ER proof from the BDD backend checks under zverify's default
	// method and under -method bdd, which takes ER proofs only.
	erPath := filepath.Join(work, "inst.er")
	if out, code := runTool(t, "zsat", "-method", "bdd", "-er", erPath, cnfPath); code != 20 {
		t.Fatalf("zsat -method bdd -er exit %d (want 20=UNSAT): %s", code, out)
	}
	for _, args := range [][]string{{"-format", "er"}, {"-method", "bdd", "-format", "er"}} {
		out, code = runTool(t, "zverify", append(args, cnfPath, erPath)...)
		if code != 0 || !strings.Contains(out, "PROOF VALID") || !strings.Contains(out, "format=er") {
			t.Fatalf("zverify %v exit %d: %s", args, code, out)
		}
	}
	out, code = runTool(t, "zproof", "check", "-cnf", cnfPath, "-format", "er", erPath)
	if code != 0 || !strings.Contains(out, "PROOF VALID (er)") {
		t.Fatalf("zproof check -format er exit %d: %s", code, out)
	}
	if out, code := runTool(t, "zverify", "-method", "bdd", cnfPath, drupPath); code != 1 || !strings.Contains(out, "er proofs only") {
		t.Errorf("zverify -method bdd on a native trace: exit %d (want 1 with the refusal): %s", code, out)
	}

	// Clausal proof statistics.
	out, code = runTool(t, "zproof", "stats", "-cnf", cnfPath, "-trace", drupPath, "-format", "drat")
	if code != 0 || !strings.Contains(out, "added clauses") {
		t.Fatalf("zproof stats -format drat exit %d: %s", code, out)
	}
	out, code = runTool(t, "zproof", "stats", "-cnf", cnfPath, "-trace", lratPath, "-format", "lrat")
	if code != 0 || !strings.Contains(out, "proof depth") {
		t.Fatalf("zproof stats -format lrat exit %d: %s", code, out)
	}

	// Unknown -format values are usage errors (exit 1) on every tool; 2 is
	// reserved for rejected proofs alone.
	if out, code := runTool(t, "zverify", "-format", "nope", cnfPath, drupPath); code != 1 {
		t.Errorf("zverify -format nope: exit %d (want 1): %s", code, out)
	}
	if out, code := runTool(t, "zcheck", "-format", "nope", cnfPath, drupPath); code != 1 {
		t.Errorf("zcheck -format nope: exit %d (want 1): %s", code, out)
	}
	if out, code := runTool(t, "zproof", "check", "-cnf", cnfPath, "-format", "nope", drupPath); code != 1 {
		t.Errorf("zproof check -format nope: exit %d (want 1): %s", code, out)
	}
	if out, code := runTool(t, "zproof", "stats", "-cnf", cnfPath, "-trace", drupPath, "-format", "nope"); code != 1 {
		t.Errorf("zproof stats -format nope: exit %d (want 1): %s", code, out)
	}
}

// TestCLICheckDaemonDRAT round-trips a DRUP proof through the daemon: the
// remote verdict, format echo, and exit codes must match the local zverify
// contract.
func TestCLICheckDaemonDRAT(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	cnfPath := filepath.Join(work, "inst.cnf")
	drupPath := filepath.Join(work, "inst.drup")
	if out, code := runTool(t, "zgen", "-family", "php", "-n", "5", "-o", cnfPath); code != 0 {
		t.Fatalf("zgen: %s", out)
	}
	if out, code := runTool(t, "zsat", "-drup", drupPath, cnfPath); code != 20 {
		t.Fatalf("zsat: %s", out)
	}

	addr, cmd := startDaemon(t)
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()

	for _, method := range []string{"bf", "hybrid"} {
		out, code := runTool(t, "zcheck", "-addr", addr, "-format", "drat", "-method", method, cnfPath, drupPath)
		if code != 0 {
			t.Fatalf("zcheck -format drat -method %s exit %d: %s", method, code, out)
		}
		if !strings.Contains(out, "PROOF VALID") {
			t.Errorf("zcheck -format drat %s output: %s", method, out)
		}
	}

	// A garbage DRUP body must come back as a structured rejection, exit 2.
	badPath := filepath.Join(work, "bad.drup")
	if err := os.WriteFile(badPath, []byte("1 2 3 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runTool(t, "zcheck", "-addr", addr, "-format", "drat", cnfPath, badPath)
	if code != 2 || !strings.Contains(out, "kind=") {
		t.Fatalf("zcheck on bogus DRUP: exit %d (want 2): %s", code, out)
	}
}
