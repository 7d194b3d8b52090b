package serve

// API hardening: the wire contract for every rejection path is pinned
// by golden files (regenerate with -update). The error envelope —
// {"error":{"code","message"}} — must stay byte-stable: clients key
// off it.

import (
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares a response body against its golden file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if string(want) != string(got) {
		t.Fatalf("wire contract drifted for %s:\n got: %s\nwant: %s", name, got, want)
	}
}

// TestHardeningEnvelopes drives every rejection path and pins the
// envelope. The server's central capacity is 30 (budget 20), so the
// 48-pair task is infeasible by construction.
func TestHardeningEnvelopes(t *testing.T) {
	_, ts := testServer(t, 30)
	base := ts.URL

	// Seed one valid task so duplicate/unknown cases have a target.
	id := admitTask(t, base, "cpu", []int{1}, []int{1, 2})
	waitOp(t, base, id)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{
			name: "malformed_json", method: http.MethodPost, path: "/v1/tasks",
			body:   `{"name": "x", "attrs": [1,`,
			status: http.StatusBadRequest, code: codeBadRequest,
		},
		{
			name: "invalid_task_empty", method: http.MethodPost, path: "/v1/tasks",
			body:   `{"name":"empty","attrs":[],"nodes":[1]}`,
			status: http.StatusUnprocessableEntity, code: codeInvalidTask,
		},
		{
			name: "invalid_task_nameless", method: http.MethodPost, path: "/v1/tasks",
			body:   `{"attrs":[1],"nodes":[1]}`,
			status: http.StatusUnprocessableEntity, code: codeInvalidTask,
		},
		{
			name: "invalid_task_central", method: http.MethodPost, path: "/v1/tasks",
			body:   `{"name":"central","attrs":[1],"nodes":[0]}`,
			status: http.StatusUnprocessableEntity, code: codeInvalidTask,
		},
		{
			name: "unknown_node", method: http.MethodPost, path: "/v1/tasks",
			body:   `{"name":"ghost","attrs":[1],"nodes":[99]}`,
			status: http.StatusUnprocessableEntity, code: codeUnknownNode,
		},
		{
			name: "unknown_attr", method: http.MethodPost, path: "/v1/tasks",
			body:   `{"name":"ghost","attrs":[77],"nodes":[1]}`,
			status: http.StatusUnprocessableEntity, code: codeUnknownAttr,
		},
		{
			name: "duplicate_task", method: http.MethodPost, path: "/v1/tasks",
			body:   `{"name":"cpu","attrs":[1],"nodes":[1]}`,
			status: http.StatusConflict, code: codeDuplicateTask,
		},
		{
			name: "unknown_task_modify", method: http.MethodPut, path: "/v1/tasks/nope",
			body:   `{"attrs":[1],"nodes":[1]}`,
			status: http.StatusNotFound, code: codeUnknownTask,
		},
		{
			name: "unknown_task_remove", method: http.MethodDelete, path: "/v1/tasks/nope",
			status: http.StatusNotFound, code: codeUnknownTask,
		},
		{
			name: "name_mismatch", method: http.MethodPut, path: "/v1/tasks/cpu",
			body:   `{"name":"other","attrs":[1],"nodes":[1]}`,
			status: http.StatusBadRequest, code: codeBadRequest,
		},
		{
			name: "infeasible", method: http.MethodPost, path: "/v1/tasks",
			body:   `{"name":"big","attrs":[1,2,3,4],"nodes":[1,2,3,4,5,6,7,8,9,10,11,12]}`,
			status: http.StatusUnprocessableEntity, code: codeInfeasible,
		},
		{
			name: "body_too_large", method: http.MethodPost, path: "/v1/tasks",
			body:   `{"name":"huge","attrs":[1],"nodes":[` + strings.Repeat("1,", 1024) + `1]}`,
			status: http.StatusRequestEntityTooLarge, code: codeBodyTooLarge,
		},
		{
			name: "not_found_endpoint", method: http.MethodGet, path: "/v1/nope",
			status: http.StatusNotFound, code: codeNotFound,
		},
		{
			name: "operation_not_found", method: http.MethodGet, path: "/v1/operations/op-999999",
			status: http.StatusNotFound, code: codeNotFound,
		},
		{
			name: "bad_trigger_cond", method: http.MethodPost, path: "/v1/triggers",
			body:   `{"name":"t","attr":1,"cond":"sideways","threshold":1}`,
			status: http.StatusUnprocessableEntity, code: codeBadTrigger,
		},
		{
			name: "bad_series_params", method: http.MethodGet, path: "/v1/series?node=x",
			status: http.StatusBadRequest, code: codeBadRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, tc.method, base+tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d: %s", status, tc.status, body)
			}
			if !strings.Contains(string(body), `"code": "`+tc.code+`"`) {
				t.Fatalf("missing code %q: %s", tc.code, body)
			}
			checkGolden(t, tc.name, body)
		})
	}
}

// TestDuplicateTriggerEnvelope needs its own flow (create then
// re-create) so it lives outside the table.
func TestDuplicateTriggerEnvelope(t *testing.T) {
	_, ts := testServer(t, 30)
	base := ts.URL
	body := `{"name":"dup","attr":1,"cond":"above","threshold":5}`
	if code, resp := do(t, http.MethodPost, base+"/v1/triggers", body); code != http.StatusCreated {
		t.Fatalf("first create: %d %s", code, resp)
	}
	code, resp := do(t, http.MethodPost, base+"/v1/triggers", body)
	if code != http.StatusConflict {
		t.Fatalf("duplicate create: %d %s", code, resp)
	}
	checkGolden(t, "duplicate_trigger", resp)
}

// TestDrainingEnvelope pins the 503 envelope a draining server
// answers mutations with.
func TestDrainingEnvelope(t *testing.T) {
	s, ts := testServer(t, 30)
	s.Drain()
	code, resp := do(t, http.MethodPost, ts.URL+"/v1/tasks", `{"name":"x","attrs":[1],"nodes":[1]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining admission: %d %s", code, resp)
	}
	checkGolden(t, "draining", resp)
}

// TestWriteJSONNonFinite pins what a body JSON cannot carry answers: a
// NaN sample gets 500 and the error envelope, never the intended status
// with an empty body, and a finite body goes out unchanged.
func TestWriteJSONNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"value": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is not the envelope: %v", rec.Body, err)
	}
	if env.Error.Code != codeInternal || env.Error.Message == "" {
		t.Fatalf("envelope %+v, want code %q with a message", env.Error, codeInternal)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, map[string]any{"value": 1.5})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\n  \"value\": 1.5\n}\n" {
		t.Fatalf("finite body: status %d, body %q", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}
