package main

import (
	"strings"
	"testing"
)

func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestList(t *testing.T) {
	out, err := capture(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"aegis:B", "aegis-rw-p:B:P", "hamming", "zipf", "security-refresh"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list missing %q:\n%s", want, out)
		}
	}
}

func TestRunSmallDevice(t *testing.T) {
	out, err := capture(t,
		"-scheme", "aegis:23", "-workload", "uniform", "-leveler", "none",
		"-pages", "8", "-pagebytes", "512", "-meanlife", "250", "-stop", "0.5", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Aegis 23x23") {
		t.Fatalf("scheme name missing:\n%s", out)
	}
	if !strings.Contains(out, "totals:") {
		t.Fatalf("totals missing:\n%s", out)
	}
	if !strings.Contains(out, "100%") {
		t.Fatalf("initial capacity missing:\n%s", out)
	}
}

func TestSchemeSpecs(t *testing.T) {
	tiny := []string{"-workload", "uniform", "-leveler", "none", "-pages", "2", "-pagebytes", "64", "-meanlife", "100", "-stop", "0.9"}
	for spec, name := range map[string]string{
		"aegis:61":        "Aegis 9x61",
		"aegis-p:23:4":    "Aegis-p 23x23 q=4",
		"aegis-rw:61":     "Aegis-rw 9x61",
		"aegis-rw-p:61:9": "Aegis-rw-p 9x61 p=9",
		"safer:32":        "SAFER32",
		"safer-cache:64":  "SAFER64-cache",
		"ecp:4":           "ECP4",
		"rdis:5":          "RDIS-5",
		"hamming":         "Hamming(72,64)",
	} {
		out, err := capture(t, append([]string{"-scheme", spec}, tiny...)...)
		if err != nil {
			t.Errorf("-scheme %s: %v", spec, err)
		} else if !strings.Contains(out, "under "+name+"\n") {
			t.Errorf("-scheme %s does not run %s:\n%s", spec, name, out)
		}
	}
	for _, spec := range []string{"", "aegis", "aegis:24", "aegis-9x61", "safer:x", "ecp-6", "hamming:7", "unknown"} {
		if _, err := capture(t, "-scheme", spec); err == nil {
			t.Errorf("-scheme %q accepted", spec)
		}
	}
}

func TestWorkloadAndLevelerSpecs(t *testing.T) {
	for _, spec := range []string{"uniform", "sequential", "zipf", "hotspot"} {
		if _, err := parseWorkload(spec, 16, 1); err != nil {
			t.Errorf("parseWorkload(%q): %v", spec, err)
		}
	}
	if _, err := parseWorkload("bogus", 16, 1); err == nil {
		t.Error("bogus workload accepted")
	}
	for _, spec := range []string{"none", "start-gap", "start-gap-rand", "security-refresh", "perfect"} {
		if _, err := parseLeveler(spec, 16, 8, 1); err != nil {
			t.Errorf("parseLeveler(%q): %v", spec, err)
		}
	}
	if _, err := parseLeveler("bogus", 16, 8, 1); err == nil {
		t.Error("bogus leveler accepted")
	}
}

func TestBadGeometryFails(t *testing.T) {
	if _, err := capture(t, "-pages", "0"); err == nil {
		t.Fatal("zero pages accepted")
	}
	// security-refresh needs power-of-two pages.
	if _, err := capture(t, "-leveler", "security-refresh", "-pages", "12"); err == nil {
		t.Fatal("non-power-of-two pages with security-refresh accepted")
	}
}
