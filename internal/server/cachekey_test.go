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

// fixedBodies are two preset requests whose "fixed" lists flatten to the
// same words (vertex 0, then parts 1, 1, 1) but fix different vertex sets:
// the first fixes vertex 0 alone, the second vertices 0 and 1.
var fixedBodies = [2]string{
	`{"preset":{"name":"IBM01S","scale":0.05},"starts":2,"fixed":[{"vertex":0,"parts":[1,1,1]}]}`,
	`{"preset":{"name":"IBM01S","scale":0.05},"starts":2,"fixed":[{"vertex":0,"parts":[1]},{"vertex":1,"parts":[1]}]}`,
}

// TestCacheKeyFixedEntries: each "fixed" entry contributes its own vertex
// and mask to a preset key, so the two lists above get different keys.
func TestCacheKeyFixedEntries(t *testing.T) {
	var keys [2]string
	for i, body := range fixedBodies {
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		req = req.withDefaults()
		if err := req.validate(Config{}.withDefaults()); err != nil {
			t.Fatal(err)
		}
		keys[i] = req.cacheKey(nil)
	}
	if keys[0] == keys[1] {
		t.Errorf("different fixed lists share cache key %s", keys[0])
	}
}

// TestPartitionFixedListsDoNotShareCache: after the first request warms the
// cache, the second must build its own hierarchies and honour both of its
// fixed vertices instead of being served the first request's instance.
func TestPartitionFixedListsDoNotShareCache(t *testing.T) {
	s := New(Config{})
	if rec, _ := post(t, s.Handler(), fixedBodies[0]); rec.Code != 200 {
		t.Fatalf("first request: %d %s", rec.Code, rec.Body.String())
	}
	rec, resp := post(t, s.Handler(), fixedBodies[1])
	if rec.Code != 200 {
		t.Fatalf("second request: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Cache != "miss" || resp.Fixed != 2 {
		t.Errorf("second request: cache %q, fixed %d; want a miss with 2 fixed vertices", resp.Cache, resp.Fixed)
	}
	if resp.Assignment[0] != 1 || resp.Assignment[1] != 1 {
		t.Errorf("second request put vertices 0 and 1 in parts %d and %d, want 1 and 1", resp.Assignment[0], resp.Assignment[1])
	}
}
