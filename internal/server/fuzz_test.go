package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"abftchol/internal/experiments"
)

// FuzzSubmitBodies feeds arbitrary bytes to both submit decoders, the
// daemon's trust boundary. Each body must either be refused with an
// error or yield a fingerprint that survives a marshal/decode round
// trip: re-encoding what was decoded (the job request, or the
// normalized campaign config) and decoding it again must name the same
// point. A job's options must also survive the remote-execution path,
// RequestFromOptions, which is how a remote sweep re-submits a point.
func FuzzSubmitBodies(f *testing.F) {
	for _, st := range docSteps() {
		if st.method == http.MethodPost {
			f.Add([]byte(st.body))
		}
	}
	for _, body := range []string{
		`{}`,
		`{"seed":3}`,
		`{"machines":["laptop"],"schemes":["magma","online","enhanced"],"classes":["storage-offset","storage-offset-burst"],"n":256,"trials_per_cell":20,"shard_trials":5,"seed":7}`,
		`{"profile":{"name":"tiny"},"n":64,"scheme":"online","variant":"right","placement":"cpu","concurrent_recalc":false}`,
		`{"machine":"laptop","n":512,"scheme":"enhanced","scenarios":[{"Kind":1,"Iter":2,"BI":-1,"BJ":-1,"Delta":-0}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, opts, fp, err := decodeJob(bytes.NewReader(body)); err == nil {
			if fp != experiments.Fingerprint(opts) {
				t.Fatalf("decodeJob fingerprint %s is not the options' %s", fp, experiments.Fingerprint(opts))
			}
			if again := jobRoundTrip(t, req); again != fp {
				t.Fatalf("job fingerprint %s became %s after a marshal/decode round trip of %s", fp, again, body)
			}
			if remote, err := RequestFromOptions(opts); err == nil {
				if again := jobRoundTrip(t, remote); again != fp {
					t.Fatalf("job fingerprint %s became %s through RequestFromOptions of %s", fp, again, body)
				}
			}
		}
		if cfg, fp, err := decodeCampaign(bytes.NewReader(body)); err == nil {
			data, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("marshal decoded campaign config: %v", err)
			}
			_, again, err := decodeCampaign(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("the normalized config %s of %s no longer decodes: %v", data, body, err)
			}
			if again != fp {
				t.Fatalf("campaign fingerprint %s became %s after a marshal/decode round trip of %s", fp, again, body)
			}
		}
	})
}

// jobRoundTrip marshals req, decodes it as a submit body and returns
// the fingerprint of the point it names.
func jobRoundTrip(t *testing.T, req JobRequest) string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal job request: %v", err)
	}
	_, _, fp, err := decodeJob(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("the re-encoded request %s no longer decodes: %v", data, err)
	}
	return fp
}
