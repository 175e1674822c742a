package main

import (
	"bytes"
	"fmt"

	"mie/internal/core"
)

// ack is one acknowledged Add: what the client sent, so the stored copy
// can be checked against it.
type ack struct {
	tenant string
	id     string
	// plain is the object's plaintext encoding; open decrypts a stored
	// ciphertext back to it (search's preload, where Repository.Add keeps
	// the ciphertext to itself).
	plain []byte
	open  func(ct []byte) ([]byte, error)
	// ct is the exact ciphertext sent (fleet, which prepares its own).
	ct []byte
}

// getFunc reads one stored ciphertext.
type getFunc func(tenant, id string) ([]byte, error)

// checkAcked verifies that every acknowledged Add is readable from each
// replica in reads, that all replicas hold the same ciphertext bytes, and
// that the ciphertext is the one sent (or decrypts to the plaintext sent).
func checkAcked(acks []ack, reads ...getFunc) error {
	for _, a := range acks {
		var first []byte
		for r, get := range reads {
			ct, err := get(a.tenant, a.id)
			if err != nil {
				return checkFailf("acked object %s/%s unreadable on replica %d: %v", a.tenant, a.id, r, err)
			}
			if r == 0 {
				first = ct
			} else if !bytes.Equal(ct, first) {
				return checkFailf("acked object %s/%s differs between replica 0 and %d", a.tenant, a.id, r)
			}
		}
		if a.ct != nil && !bytes.Equal(first, a.ct) {
			return checkFailf("acked object %s/%s stored with a different ciphertext", a.tenant, a.id)
		}
		if a.open != nil {
			plain, err := a.open(first)
			if err != nil {
				return checkFailf("acked object %s/%s does not decrypt: %v", a.tenant, a.id, err)
			}
			if !bytes.Equal(plain, a.plain) {
				return checkFailf("acked object %s/%s decrypts to other content", a.tenant, a.id)
			}
		}
	}
	return nil
}

// parityTries bounds how often a mismatching query is re-run on the
// shadow. The engine sums floating-point scores in map order, so near-tied
// hits can swap between two evaluations of one query on one repository;
// a remote result passes if it equals any of the shadow's evaluations.
const parityTries = 16

// checkParity verifies that each remote result list equals a result the
// embedded shadow repository gives for the same prepared query.
func checkParity(remote [][]core.SearchHit, shadow func(q int) ([]core.SearchHit, error)) error {
	for q, r := range remote {
		var why string
		for try := 0; try < parityTries; try++ {
			s, err := shadow(q)
			if err != nil {
				return err
			}
			if why = hitsDiffer(r, s); why == "" {
				break
			}
		}
		if why != "" {
			return checkFailf("parity: query %d: %s", q, why)
		}
	}
	return nil
}

// hitsDiffer describes the first difference between two result lists, or
// returns "" when they are equal hit by hit.
func hitsDiffer(r, s []core.SearchHit) string {
	if len(r) != len(s) {
		return fmt.Sprintf("%d hits remotely, %d on the shadow", len(r), len(s))
	}
	for i := range r {
		if r[i].ObjectID != s[i].ObjectID || r[i].Score != s[i].Score || !bytes.Equal(r[i].Ciphertext, s[i].Ciphertext) {
			return fmt.Sprintf("hit %d is %s (score %v) remotely, %s (score %v) on the shadow",
				i, r[i].ObjectID, r[i].Score, s[i].ObjectID, s[i].Score)
		}
	}
	return ""
}

// averagePrecision is AP@k of one ranking against its relevant set.
func averagePrecision(hits []core.SearchHit, relevant []string) float64 {
	if len(relevant) == 0 {
		return 0
	}
	rel := make(map[string]bool, len(relevant))
	for _, id := range relevant {
		rel[id] = true
	}
	found, sum := 0, 0.0
	for i, h := range hits {
		if rel[h.ObjectID] {
			found++
			sum += float64(found) / float64(i+1)
		}
	}
	return sum / float64(len(relevant))
}
