package main

import "testing"

func TestParseJobURL(t *testing.T) {
	for _, tc := range []struct {
		url  string
		base string
		id   int
		ok   bool
	}{
		{"http://h:8080/v1/campaigns/7", "http://h:8080", 7, true},
		{"http://h:8080/v1/campaigns/7/", "http://h:8080", 7, true},
		{"http://h:8080/v1/campaigns/7/events", "http://h:8080", 7, true},
		{"http://h/prefix/v1/campaigns/12/events/", "http://h/prefix", 12, true},
		{"http://h:8080/campaigns/7", "", 0, false},
		{"http://h:8080/campaigns/7/events", "", 0, false},
		{"http://h:8080/v1/campaigns/", "", 0, false},
		{"http://h:8080/v1/campaigns/0", "", 0, false},
		{"http://h:8080/v1/campaigns/x", "", 0, false},
		{"http://h:8080/v1/campaigns/7/spans", "", 0, false},
	} {
		base, id, err := parseJobURL(tc.url)
		if (err == nil) != tc.ok || base != tc.base || id != tc.id {
			t.Errorf("parseJobURL(%q) = %q, %d, %v; want %q, %d, ok=%v", tc.url, base, id, err, tc.base, tc.id, tc.ok)
		}
	}
}
