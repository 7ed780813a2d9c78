package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

// checkAnswer validates one in-process answer: when found, q is a member, its
// rank is within 1..k and the members are ascending and unique; when not
// found, the community is empty; only a CODL query may come from the index.
func checkAnswer(req request, com cod.Community, k int) error {
	if com.FromIndex && req.Global {
		return fmt.Errorf("%q: a CODU/CODR answer claims to come from the HIMOR index", req.Expr)
	}
	return checkCommunity(req, com.Found, com.Rank, com.Nodes, k)
}

func checkCommunity(req request, found bool, rank int, nodes []cod.NodeID, k int) error {
	if !found {
		if len(nodes) != 0 || rank != 0 {
			return fmt.Errorf("%q: not found but rank %d and %d members", req.Expr, rank, len(nodes))
		}
		return nil
	}
	if rank < 1 || rank > k {
		return fmt.Errorf("%q: rank %d outside 1..%d", req.Expr, rank, k)
	}
	member := false
	for i, v := range nodes {
		if i > 0 && v <= nodes[i-1] {
			return fmt.Errorf("%q: members not ascending and unique at position %d", req.Expr, i)
		}
		member = member || v == req.Node
	}
	if !member {
		return fmt.Errorf("%q: query node %d is not in its community of %d", req.Expr, req.Node, len(nodes))
	}
	return nil
}

// discoverResponse is the part of codserve's /discover answer the checks
// read.
type discoverResponse struct {
	Query     int          `json:"query"`
	Method    string       `json:"method"`
	Found     bool         `json:"found"`
	FromIndex bool         `json:"from_index"`
	Rank      int          `json:"rank"`
	Size      int          `json:"size"`
	Nodes     []cod.NodeID `json:"nodes"`
}

// checkHTTP validates one HTTP answer: status 200, a decodable body whose
// size matches the listed members, and the in-process checks on the rest.
func checkHTTP(req request, resp *http.Response, k int) (discoverResponse, error) {
	var dr discoverResponse
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return dr, fmt.Errorf("%q: reading body: %w", req.Expr, err)
	}
	if resp.StatusCode != http.StatusOK {
		return dr, fmt.Errorf("%q: status %d: %s", req.Expr, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &dr); err != nil {
		return dr, fmt.Errorf("%q: decoding answer: %w", req.Expr, err)
	}
	if dr.FromIndex && dr.Method != "codl" {
		return dr, fmt.Errorf("%q: a %s answer claims to come from the HIMOR index", req.Expr, dr.Method)
	}
	if dr.Query != int(req.Node) {
		return dr, fmt.Errorf("%q: answer is for node %d", req.Expr, dr.Query)
	}
	if dr.Nodes == nil { // not found, or too large to list
		if dr.Found && (dr.Rank < 1 || dr.Rank > k) || !dr.Found && (dr.Rank != 0 || dr.Size != 0) {
			return dr, fmt.Errorf("%q: found %t with rank %d and size %d", req.Expr, dr.Found, dr.Rank, dr.Size)
		}
		return dr, nil
	}
	if dr.Size != len(dr.Nodes) {
		return dr, fmt.Errorf("%q: size %d but %d members listed", req.Expr, dr.Size, len(dr.Nodes))
	}
	return dr, checkCommunity(req, dr.Found, dr.Rank, dr.Nodes, k)
}

// replayPrefix is how many leading requests the replay check re-runs.
const replayPrefix = 16

// replaySeed is the per-query seed the replay check gives request i.
func replaySeed(seed uint64, i int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 1
}

// answerFingerprint is the fingerprint of one answer: found, rank, and the
// FNV-64a member hash the query-event log records.
func answerFingerprint(com cod.Community) string {
	return fmt.Sprintf("%t/%d/%s", com.Found, com.Rank, eventlog.NodesSum(com.Nodes))
}

// replay re-runs the first replayPrefix requests serially through
// ReplaySeededCtx, each with its replaySeed, checks every answer, and
// returns the per-request fingerprints in request order. order lists the
// request indices in the order to run them.
func replay(ctx context.Context, s *cod.Searcher, reqs []request, seed uint64, k int, order []int) ([]string, error) {
	out := make([]string, len(order))
	for _, i := range order {
		com, err := s.ReplaySeededCtx(ctx, reqs[i].Expr, replaySeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("replay %q: %w", reqs[i].Expr, err)
		}
		if err := checkAnswer(reqs[i], com, k); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		out[i] = answerFingerprint(com)
	}
	return out, nil
}

// combine folds per-request fingerprints into one FNV-64a digest.
func combine(fps []string) string {
	h := fnv.New64a()
	for i, fp := range fps {
		fmt.Fprintf(h, "%d:%s\n", i, fp)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// replayCheck runs the replay prefix and compares its fingerprint with the
// value recorded for (workload, seed). For a seed with no recorded value it
// replays the prefix again in reverse order and requires the same answers,
// which still catches any dependence on call order or leftover state.
func replayCheck(ctx context.Context, s *cod.Searcher, workload string, reqs []request, seed uint64, k int) (string, error) {
	n := min(replayPrefix, len(reqs))
	fwd, rev := make([]int, n), make([]int, n)
	for i := range fwd {
		fwd[i], rev[i] = i, n-1-i
	}
	first, err := replay(ctx, s, reqs, seed, k, fwd)
	if err != nil {
		return "", err
	}
	got := combine(first)
	if want, ok := recordedFingerprints[workload][seed]; ok {
		if got != want {
			return got, fmt.Errorf("replay fingerprint %s, recorded %s for %s seed %d", got, want, workload, seed)
		}
		return got + " (matches the recorded value)", nil
	}
	second, err := replay(ctx, s, reqs, seed, k, rev)
	if err != nil {
		return "", err
	}
	for i := range first {
		if first[i] != second[i] {
			return got, fmt.Errorf("replay of %q differs on a second run: %s vs %s", reqs[i].Expr, first[i], second[i])
		}
	}
	return got + " (no recorded value for this seed; a reversed second replay matched)", nil
}
