package server

import (
	"encoding/json"
	"testing"
)

// TestCacheKeyStable pins the hierarchy-cache key and the build seed derived
// from it for one preset request and one "hgr" upload. Both feed every k = 2
// answer: a key or seed that moves silently changes the hierarchies, and so
// the cut, of every cached request. Any change to them must be deliberate
// and re-record these values.
func TestCacheKeyStable(t *testing.T) {
	cases := []struct {
		name, body string
		key        string
		seed       uint64
	}{
		{
			name: "preset",
			body: `{"preset":{"name":"IBM01S","scale":0.1},"starts":2,"fix_fraction":0.3,"cutoff":0.1}`,
			key:  "preset:IBM01S:0.1:ae295f0279894385",
			seed: 0xf99318f28de33d1e,
		},
		{
			name: "hgr",
			body: hgrBody(hgrUploadText, "0\n-1\n-1\n-1\n1\n-1\n-1\n-1\n", `"tolerance":0.3`),
			key:  "upload:1f72089812e3aaec",
			seed: 0xfb9892d621c02824,
		},
	}
	for _, tc := range cases {
		var req Request
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cfg := Config{}.withDefaults()
		req = req.withDefaults()
		if err := req.validate(cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var key string
		if req.Preset != nil {
			key = req.cacheKey(nil)
		} else {
			prob, _, err := buildProblem(req, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			key = req.cacheKey(prob)
		}
		if key != tc.key {
			t.Errorf("%s: cacheKey = %q, want %q", tc.name, key, tc.key)
		}
		if seed := hierarchySeed(key); seed != tc.seed {
			t.Errorf("%s: hierarchySeed = %#x, want %#x", tc.name, seed, tc.seed)
		}
	}
}
