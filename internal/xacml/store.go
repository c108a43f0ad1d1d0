package xacml

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// PDP is a Policy Decision Point: a thread-safe policy store plus
// request evaluation with permit-overrides at the policy level (any
// policy that permits grants access and supplies its obligations).
//
// The store indexes policies by resource so that a request evaluates
// only the policies that could apply to it. A policy whose target can
// match only a request carrying one of a set of resource-id values is
// filed under each of those values (see resourceKeys); every other
// policy is on the always list. A request's candidates are the
// policies filed under its resource-id values plus the always list,
// and Evaluate walks them in insertion order. Every policy left out
// would have been NotApplicable without error, so the decision, the
// deciding policy, its obligations and any error are those of a scan
// over all policies in insertion order.
type PDP struct {
	mu         sync.RWMutex
	policies   map[string]*stored
	byResource map[string][]*stored // resource-id value -> keyed policies, by seq
	always     []*stored            // unkeyed policies, by seq
	nextSeq    uint64
}

// stored is one loaded policy and its place in the index.
type stored struct {
	pol *Policy
	// seq is the insertion order: an update keeps it, a removal and
	// re-add takes a new one at the end.
	seq uint64
	// keys are the resource-id values the policy is filed under; nil
	// puts it on the always list.
	keys []string
}

// NewPDP creates an empty PDP.
func NewPDP() *PDP {
	return &PDP{policies: map[string]*stored{}, byResource: map[string][]*stored{}}
}

// LoadPolicy parses and stores a policy document. Loading a policy with
// an existing id replaces it (a policy update per §3.3).
func (p *PDP) LoadPolicy(data []byte) (*Policy, error) {
	pol, err := ParsePolicy(data)
	if err != nil {
		return nil, err
	}
	p.AddPolicy(pol)
	return pol, nil
}

// AddPolicy stores an already-parsed policy, replacing any same-id one
// in its position.
func (p *PDP) AddPolicy(pol *Policy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, exists := p.policies[pol.PolicyID]
	if exists {
		p.unfileLocked(s)
	} else {
		s = &stored{seq: p.nextSeq}
		p.nextSeq++
		p.policies[pol.PolicyID] = s
	}
	s.pol, s.keys = pol, resourceKeys(pol.Target)
	if s.keys == nil {
		p.always = insertBySeq(p.always, s)
		return
	}
	for _, k := range s.keys {
		p.byResource[k] = insertBySeq(p.byResource[k], s)
	}
}

// RemovePolicy deletes a policy by id, reporting whether it existed.
func (p *PDP) RemovePolicy(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.policies[id]
	if !ok {
		return false
	}
	delete(p.policies, id)
	p.unfileLocked(s)
	return true
}

// unfileLocked takes a policy out of the index lists it is filed in.
func (p *PDP) unfileLocked(s *stored) {
	if s.keys == nil {
		p.always = deleteBySeq(p.always, s)
		return
	}
	for _, k := range s.keys {
		if l := deleteBySeq(p.byResource[k], s); len(l) > 0 {
			p.byResource[k] = l
		} else {
			delete(p.byResource, k)
		}
	}
}

// insertBySeq inserts s into l, which is ordered by seq.
func insertBySeq(l []*stored, s *stored) []*stored {
	i, _ := slices.BinarySearchFunc(l, s.seq, bySeq)
	return slices.Insert(l, i, s)
}

// deleteBySeq removes s from l, which is ordered by seq.
func deleteBySeq(l []*stored, s *stored) []*stored {
	if i, ok := slices.BinarySearchFunc(l, s.seq, bySeq); ok {
		return slices.Delete(l, i, i+1)
	}
	return l
}

func bySeq(s *stored, seq uint64) int { return cmp.Compare(s.seq, seq) }

// resourceKeys returns the resource-id values a policy with target t
// can be filed under, or nil when it must be evaluated for every
// request. A target is keyed when every match in it is one that cannot
// error and every entry of its resource section requires resource-id
// to equal (case-sensitively) some value: then a request carrying none
// of the values fails the resource section, and the policy is
// NotApplicable without error, whatever the rest of the request.
// Errors depend only on the policy, so a target that can error stays
// on the always list and keeps its Indeterminate.
func resourceKeys(t *Target) []string {
	if t == nil || len(t.Resources) == 0 {
		return nil
	}
	for _, sec := range [][]TargetEntry{t.Subjects, t.Resources, t.Actions} {
		for _, e := range sec {
			for _, m := range e.Matches {
				if !matchCannotError(m) {
					return nil
				}
			}
		}
	}
	keys := make([]string, 0, len(t.Resources))
	for _, e := range t.Resources {
		v, ok := entryResourceValue(e)
		if !ok {
			return nil
		}
		if !slices.Contains(keys, v) {
			keys = append(keys, v)
		}
	}
	return keys
}

// matchCannotError reports whether matchHolds never errors on m.
func matchCannotError(m Match) bool {
	if m.Designator.AttributeID == "" {
		return false
	}
	switch m.MatchID {
	case MatchStringEqual, MatchAnyURIEqual, "", MatchStringEqualIgnoreCase:
		return true
	}
	return false
}

// entryResourceValue returns a value that resource-id must equal for
// the entry to hold, if the entry has a case-sensitive resource-id
// match.
func entryResourceValue(e TargetEntry) (string, bool) {
	for _, m := range e.Matches {
		if m.Designator.AttributeID != AttrResourceID {
			continue
		}
		switch m.MatchID {
		case MatchStringEqual, MatchAnyURIEqual, "":
			return strings.TrimSpace(m.Value.Value), true
		}
	}
	return "", false
}

// Policy returns a loaded policy by id.
func (p *PDP) Policy(id string) (*Policy, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s, ok := p.policies[id]
	if !ok {
		return nil, false
	}
	return s.pol, true
}

// PolicyIDs lists loaded policy ids, sorted.
func (p *PDP) PolicyIDs() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.policies))
	for id := range p.policies {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Count reports the number of loaded policies.
func (p *PDP) Count() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.policies)
}

// Evaluate runs the request against the policies that could apply to
// it, in insertion order, with permit-overrides semantics: the first
// Permit wins and its obligations are returned; otherwise the first
// explicit Deny wins over NotApplicable. A request with one resource-id
// value costs one index lookup and no allocation.
func (p *PDP) Evaluate(req *Request) (Result, error) {
	if req == nil {
		return Result{Decision: Indeterminate}, fmt.Errorf("xacml: nil request")
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	var keyed []*stored
	if v, n := req.Resource.single(AttrResourceID); n == 1 {
		keyed = p.byResource[v]
	} else if n > 1 {
		keyed = p.candidatesLocked(req.Resource.values(AttrResourceID))
	}

	// Merge the keyed candidates with the always list by seq.
	final := Result{Decision: NotApplicable}
	i, j := 0, 0
	for i < len(keyed) || j < len(p.always) {
		var s *stored
		if j == len(p.always) || (i < len(keyed) && keyed[i].seq < p.always[j].seq) {
			s, i = keyed[i], i+1
		} else {
			s, j = p.always[j], j+1
		}
		res, err := EvaluatePolicy(s.pol, req)
		if err != nil {
			return Result{Decision: Indeterminate, PolicyID: s.pol.PolicyID}, err
		}
		switch res.Decision {
		case Permit:
			return res, nil
		case Deny:
			if final.Decision == NotApplicable {
				final = res
			}
		}
	}
	return final, nil
}

// candidatesLocked returns the keyed policies filed under any of
// several resource-id values, ordered by seq. A policy filed under two
// of the values appears twice; evaluating it again changes nothing.
func (p *PDP) candidatesLocked(values []string) []*stored {
	var out []*stored
	for _, v := range values {
		out = append(out, p.byResource[v]...)
	}
	slices.SortFunc(out, func(a, b *stored) int { return cmp.Compare(a.seq, b.seq) })
	return out
}
