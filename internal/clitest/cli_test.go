// Package clitest builds the command-line binaries and exercises their
// primary flows end to end: generate → build → query → plot.
package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles one command into dir and returns the binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "tlevelindex/cmd/"+name)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/clitest -> repo root
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

func runExpectFail(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %s: expected failure\n%s", filepath.Base(bin), strings.Join(args, " "), out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline skipped in short mode")
	}
	dir := t.TempDir()
	lvdata := buildCmd(t, dir, "lvdata")
	lvbuild := buildCmd(t, dir, "lvbuild")
	lvquery := buildCmd(t, dir, "lvquery")
	lvplot := buildCmd(t, dir, "lvplot")

	dataPath := filepath.Join(dir, "data.txt")
	run(t, lvdata, "-dist", "IND", "-n", "300", "-d", "2", "-seed", "3", "-out", dataPath)
	if _, err := os.Stat(dataPath); err != nil {
		t.Fatalf("dataset not written: %v", err)
	}

	idxPath := filepath.Join(dir, "data.idx")
	out := run(t, lvbuild, "-in", dataPath, "-tau", "3", "-algo", "PBA+", "-out", idxPath)
	for _, want := range []string{"algorithm", "PBA+", "cells", "index written"} {
		if !strings.Contains(out, want) {
			t.Errorf("lvbuild output missing %q:\n%s", want, out)
		}
	}
	if fi, err := os.Stat(idxPath); err != nil || fi.Size() == 0 {
		t.Fatalf("index not written: %v", err)
	}

	out = run(t, lvquery, "-in", dataPath, "-tau", "3", "-query", "topk", "-k", "3", "-w", "0.4,0.6")
	if !strings.Contains(out, "top-3 at") {
		t.Errorf("lvquery topk output:\n%s", out)
	}
	out = run(t, lvquery, "-in", dataPath, "-tau", "3", "-query", "kspr", "-k", "2", "-focal", "0")
	if !strings.Contains(out, "kSPR(2, 0)") {
		t.Errorf("lvquery kspr output:\n%s", out)
	}
	out = run(t, lvquery, "-in", dataPath, "-tau", "3", "-query", "utk", "-k", "2", "-lo", "0.3", "-hi", "0.4")
	if !strings.Contains(out, "UTK(2,") {
		t.Errorf("lvquery utk output:\n%s", out)
	}
	out = run(t, lvquery, "-in", dataPath, "-tau", "3", "-query", "oru", "-k", "2", "-w", "0.3,0.7", "-m", "4")
	if !strings.Contains(out, "ORU(2,") {
		t.Errorf("lvquery oru output:\n%s", out)
	}
	out = run(t, lvquery, "-in", dataPath, "-tau", "3", "-query", "maxrank", "-focal", "5")
	if !strings.Contains(out, "MaxRank(5)") {
		t.Errorf("lvquery maxrank output:\n%s", out)
	}

	out = run(t, lvplot, "-in", dataPath, "-tau", "3", "-width", "40")
	if !strings.Contains(out, "rank 1") || !strings.Contains(out, "legend:") {
		t.Errorf("lvplot output:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI error tests skipped in short mode")
	}
	dir := t.TempDir()
	lvdata := buildCmd(t, dir, "lvdata")
	lvbuild := buildCmd(t, dir, "lvbuild")
	lvquery := buildCmd(t, dir, "lvquery")

	if out := runExpectFail(t, lvdata, "-dist", "NOPE"); !strings.Contains(out, "unknown distribution") {
		t.Errorf("lvdata error output: %s", out)
	}
	if out := runExpectFail(t, lvbuild); !strings.Contains(out, "-in is required") {
		t.Errorf("lvbuild error output: %s", out)
	}
	if out := runExpectFail(t, lvbuild, "-in", "/nonexistent", "-algo", "NOPE"); !strings.Contains(out, "unknown algorithm") {
		t.Errorf("lvbuild bad algo output: %s", out)
	}
	if out := runExpectFail(t, lvquery, "-in", "/nonexistent"); !strings.Contains(out, "no such file") {
		t.Errorf("lvquery missing file output: %s", out)
	}

	// lvquery with an unknown query on real data.
	dataPath := filepath.Join(dir, "d.txt")
	run(t, lvdata, "-dist", "IND", "-n", "50", "-d", "2", "-out", dataPath)
	if out := runExpectFail(t, lvquery, "-in", dataPath, "-query", "nope"); !strings.Contains(out, "unknown query") {
		t.Errorf("lvquery unknown query output: %s", out)
	}
	// A k beyond -tau exits with the typed error rather than deepening.
	if out := runExpectFail(t, lvquery, "-in", dataPath, "-tau", "2", "-query", "kspr", "-k", "3"); !strings.Contains(out, "k exceeds the index depth") {
		t.Errorf("lvquery k > tau output: %s", out)
	}
}
