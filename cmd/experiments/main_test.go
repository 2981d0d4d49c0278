package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownArtefact(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scale", "quick", "-progress=false", "-only", "fig7"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown artefact "fig7"`) {
		t.Fatalf("err = %v, want unknown artefact", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed output before failing:\n%s", out.String())
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scale", "huge", "-progress=false", "-only", "table1"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown scale "huge"`) {
		t.Fatalf("err = %v, want unknown scale", err)
	}
}

// TestRunTelemetryPathFailsFirst: an unwritable -telemetry path is
// reported before any artefact runs, not after the whole evaluation.
func TestRunTelemetryPathFailsFirst(t *testing.T) {
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "missing-dir", "metrics.jsonl")
	err := run([]string{"-scale", "quick", "-progress=false", "-only", "table1", "-telemetry", path}, &out)
	if err == nil {
		t.Fatal("unwritable telemetry path accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("ran an artefact before failing on the telemetry path:\n%s", out.String())
	}
}

// TestRunTelemetryOverwritesOldFile: the -telemetry file is opened
// without truncation up front and truncated just before the write, so a
// longer earlier export leaves no stale tail behind.
func TestRunTelemetryOverwritesOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	if err := os.WriteFile(path, bytes.Repeat([]byte("stale\n"), 10000), 0o666); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-scale", "quick", "-progress=false", "-only", "table1", "-telemetry", path}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(got, []byte("stale")) {
		t.Fatalf("old telemetry content survived the rewrite (%d bytes)", len(got))
	}
}

func TestRunOnlyPrintsOneSection(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "quick", "-progress=false", "-only", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "=== table1 ===\n") || strings.Count(s, "=== ") != 1 {
		t.Fatalf("want exactly one table1 section, got:\n%s", s)
	}
}
