package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// checkPromText verifies that blob is Prometheus text exposition: every
// line is a comment or `name{label="value",...} value [timestamp]` with a
// legal metric name, well-quoted labels and a numeric value. It returns
// the number of samples.
func checkPromText(blob []byte) (samples int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(blob))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if err := checkPromLine(text); err != nil {
			return samples, fmt.Errorf("line %d %q: %w", line, text, err)
		}
		samples++
	}
	return samples, sc.Err()
}

func checkPromLine(text string) error {
	i := 0
	for i < len(text) && isNameByte(text[i], i == 0) {
		i++
	}
	if i == 0 {
		return fmt.Errorf("no metric name")
	}
	rest := text[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := scanLabels(rest)
		if err != nil {
			return err
		}
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("want a value and an optional timestamp, got %d fields", len(fields))
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("bad value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return nil
}

func isNameByte(c byte, first bool) bool {
	return c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || !first && c >= '0' && c <= '9'
}

// scanLabels checks a `{k="v",...}` block and returns the index just past
// its closing brace.
func scanLabels(s string) (int, error) {
	i := 1
	for {
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && isNameByte(s[i], i == start) && s[i] != ':' {
			i++
		}
		if i == start || i+1 >= len(s) || s[i] != '=' || s[i+1] != '"' {
			return 0, fmt.Errorf("bad label at offset %d", start)
		}
		for i += 2; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' {
				i++
			}
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		i++
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
