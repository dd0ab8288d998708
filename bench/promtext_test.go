package main

import "testing"

func TestCheckPromText(t *testing.T) {
	good := `# HELP x y
taskmanager_job_task_trueProcessingRate{job="wc",operator="Count"} 29700 1234000
autrascale_decisions_total{action="none",job="a \"quoted\" name"} 12
autrascale_runtime_gc_pause_ns_bucket{le="+Inf"} 3
autrascale_runtime_goroutines 9

nan_value NaN
`
	if n, err := checkPromText([]byte(good)); err != nil || n != 5 {
		t.Fatalf("good text: %d samples, %v", n, err)
	}
	for _, bad := range []string{
		"9starts_with_digit 1",
		`x{job="unterminated} 1`,
		`x{job=wc} 1`,
		"x notanumber",
		"x 1 2 3",
		"x",
		"<html>502</html>",
	} {
		if _, err := checkPromText([]byte(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
