package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/autonomizer/autonomizer/internal/serve"
)

// The fleet posture surface: GET /statusz on the router renders one
// document answering "what is the whole fleet doing" — per-backend
// liveness, consecutive-failure counts, model placements, and each
// live backend's own /statusz embedded verbatim, so a single curl
// shows queue occupancy, shed totals and drift verdicts across every
// shard (DESIGN.md §5i).

// BackendStatus is one backend's row in the fleet /statusz document.
type BackendStatus struct {
	URL              string   `json:"url"`
	Up               bool     `json:"up"`
	ConsecutiveFails int      `json:"consecutive_fails"`
	LastError        string   `json:"last_error,omitempty"`
	DownSeconds      float64  `json:"down_seconds,omitempty"`
	Models           []string `json:"models"` // placements recorded here
	// Statusz is the backend's own /statusz document, fetched live;
	// null when the backend is down or the fetch failed.
	Statusz json.RawMessage `json:"statusz,omitempty"`
}

// Statusz is the fleet /statusz document.
type Statusz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Ready         bool    `json:"ready"`
	Backends      int     `json:"backends"`
	LiveBackends  int     `json:"live_backends"`

	ModelsInstalled int               `json:"models_installed"`
	Placements      map[string]string `json:"placements"`

	Fleet  []BackendStatus   `json:"fleet"`
	Checks map[string]string `json:"checks"`
	// Workers reports supervised backend processes (aufleet -spawn);
	// absent in router-only deployments.
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// Status assembles the current fleet posture, fetching each live
// backend's /statusz concurrently (bounded by ctx).
func (rt *Router) Status(ctx context.Context) Statusz {
	ready, checks := rt.readiness()

	rt.mu.Lock()
	st := Statusz{
		UptimeSeconds:   time.Since(rt.start).Seconds(),
		Ready:           ready,
		Backends:        len(rt.backends),
		ModelsInstalled: len(rt.store),
		Placements:      make(map[string]string, len(rt.placed)),
		Checks:          checks,
	}
	rows := make([]BackendStatus, 0, len(rt.order))
	for _, u := range rt.order {
		b := rt.backends[u]
		row := BackendStatus{
			URL: b.url, Up: b.up, ConsecutiveFails: b.fails, LastError: b.lastErr,
			Models: []string{},
		}
		if !b.up && !b.downSince.IsZero() {
			row.DownSeconds = time.Since(b.downSince).Seconds()
		}
		if b.up {
			st.LiveBackends++
		}
		rows = append(rows, row)
	}
	for model, at := range rt.placed {
		st.Placements[model] = at
		for i := range rows {
			if rows[i].URL == at {
				rows[i].Models = append(rows[i].Models, model)
			}
		}
	}
	rt.mu.Unlock()

	var wg sync.WaitGroup
	for i := range rows {
		if !rows[i].Up {
			continue
		}
		wg.Add(1)
		go func(row *BackendStatus) {
			defer wg.Done()
			doc, err := rt.backendStatusz(ctx, row.URL)
			if err != nil {
				rt.log.Debug("statusz fetch failed", "backend", row.URL, "err", err)
				return
			}
			row.Statusz = doc
		}(&rows[i])
	}
	wg.Wait()
	for i := range rows {
		sort.Strings(rows[i].Models)
	}
	st.Fleet = rows
	if rt.cfg.Supervisor != nil {
		st.Workers = rt.cfg.Supervisor.States()
	}
	return st
}

func (rt *Router) backendStatusz(ctx context.Context, url string) (json.RawMessage, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/statusz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("invalid JSON statusz body")
	}
	return json.RawMessage(body), nil
}

// handleStatusz renders the aggregated fleet status document.
func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, rt.Status(r.Context()))
}
