package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client submits sweep requests to a running esfarmd daemon.
type Client struct {
	// BaseURL is the daemon address, e.g. "http://127.0.0.1:7433".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// Sweep POSTs the request and copies the NDJSON response stream to w
// as it arrives. Non-200 responses come back as errors carrying the
// daemon's message.
func (c *Client) Sweep(req SweepRequest, w io.Writer) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.http().Post(c.url("/v1/sweep"), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("farm: daemon: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// Scenarios fetches the daemon's catalog scenario names.
func (c *Client) Scenarios() ([]string, error) {
	resp, err := c.http().Get(c.url("/v1/scenarios"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("farm: daemon: %s", resp.Status)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, err
	}
	return names, nil
}
