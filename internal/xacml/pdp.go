package xacml

import (
	"fmt"
	"strings"
)

// Result is the PDP response: the decision plus any obligations whose
// FulfillOn matches the decision, and the id of the policy that
// produced it. Obligations may share the policy's backing array, so
// callers treat it as read-only.
type Result struct {
	Decision    Decision
	Obligations []Obligation
	PolicyID    string
}

// EvaluatePolicy evaluates a single policy against a request. If the
// policy target does not match the result is NotApplicable; otherwise
// the rules are combined per the policy's combining algorithm, and on
// Permit/Deny the matching obligations are attached.
func EvaluatePolicy(p *Policy, req *Request) (Result, error) {
	matched, err := targetMatches(p.Target, req)
	if err != nil {
		return Result{Decision: Indeterminate, PolicyID: p.PolicyID}, err
	}
	if !matched {
		return Result{Decision: NotApplicable, PolicyID: p.PolicyID}, nil
	}
	decision, err := combineRules(p, req)
	if err != nil {
		return Result{Decision: Indeterminate, PolicyID: p.PolicyID}, err
	}
	res := Result{Decision: decision, PolicyID: p.PolicyID}
	if decision == Permit || decision == Deny {
		want := EffectPermit
		if decision == Deny {
			want = EffectDeny
		}
		res.Obligations = fulfilled(p.Obligations.Obligations, want)
	}
	return res, nil
}

// fulfilled returns the obligations that accompany effect. When all of
// them do, it returns obs itself with its capacity capped, so the
// common case does not allocate and an append by the caller copies.
func fulfilled(obs []Obligation, effect Effect) []Obligation {
	applies := func(o Obligation) bool { return o.FulfillOn == "" || o.FulfillOn == effect }
	n := 0
	for _, o := range obs {
		if applies(o) {
			n++
		}
	}
	switch n {
	case 0:
		return nil
	case len(obs):
		return obs[:n:n]
	}
	out := make([]Obligation, 0, n)
	for _, o := range obs {
		if applies(o) {
			out = append(out, o)
		}
	}
	return out
}

// combineRules applies the policy's rule combining algorithm.
func combineRules(p *Policy, req *Request) (Decision, error) {
	alg := p.RuleCombiningAlgID
	if alg == "" {
		alg = RuleCombFirstApplicable
	}
	switch alg {
	case RuleCombFirstApplicable:
		for _, r := range p.Rules {
			m, err := targetMatches(r.Target, req)
			if err != nil {
				return Indeterminate, err
			}
			if m {
				return effectDecision(r.Effect), nil
			}
		}
		return NotApplicable, nil
	case RuleCombPermitOverrides:
		saw := NotApplicable
		for _, r := range p.Rules {
			m, err := targetMatches(r.Target, req)
			if err != nil {
				return Indeterminate, err
			}
			if !m {
				continue
			}
			if r.Effect == EffectPermit {
				return Permit, nil
			}
			saw = Deny
		}
		return saw, nil
	case RuleCombDenyOverrides:
		saw := NotApplicable
		for _, r := range p.Rules {
			m, err := targetMatches(r.Target, req)
			if err != nil {
				return Indeterminate, err
			}
			if !m {
				continue
			}
			if r.Effect == EffectDeny {
				return Deny, nil
			}
			saw = Permit
		}
		return saw, nil
	default:
		return Indeterminate, fmt.Errorf("xacml: unsupported combining algorithm %q", alg)
	}
}

func effectDecision(e Effect) Decision {
	if e == EffectPermit {
		return Permit
	}
	return Deny
}

// targetMatches checks a target against the request. A nil target
// matches everything; each non-empty section must have at least one
// matching entry.
func targetMatches(t *Target, req *Request) (bool, error) {
	if t == nil {
		return true, nil
	}
	sections := []struct {
		entries []TargetEntry
		bag     AttributeBag
	}{
		{t.Subjects, req.Subject},
		{t.Resources, req.Resource},
		{t.Actions, req.Action},
	}
	for _, sec := range sections {
		if len(sec.entries) == 0 {
			continue
		}
		anyEntry := false
		for _, e := range sec.entries {
			ok, err := entryMatches(e, sec.bag)
			if err != nil {
				return false, err
			}
			if ok {
				anyEntry = true
				break
			}
		}
		if !anyEntry {
			return false, nil
		}
	}
	return true, nil
}

// entryMatches requires every Match in the entry to hold (AND).
func entryMatches(e TargetEntry, bag AttributeBag) (bool, error) {
	for _, m := range e.Matches {
		ok, err := matchHolds(m, bag)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// matchHolds evaluates one Match: any value of the designated request
// attribute may satisfy it (bag semantics).
func matchHolds(m Match, bag AttributeBag) (bool, error) {
	attrID := m.Designator.AttributeID
	if attrID == "" {
		return false, fmt.Errorf("xacml: match without attribute designator")
	}
	var eq func(a, b string) bool
	switch m.MatchID {
	case MatchStringEqual, MatchAnyURIEqual, "":
		eq = func(a, b string) bool { return a == b }
	case MatchStringEqualIgnoreCase:
		eq = strings.EqualFold
	default:
		return false, fmt.Errorf("xacml: unsupported MatchId %q", m.MatchID)
	}
	want := strings.TrimSpace(m.Value.Value)
	for _, a := range bag.Attributes {
		if a.AttributeID != attrID {
			continue
		}
		for _, v := range a.Values {
			if eq(strings.TrimSpace(v.Value), want) {
				return true, nil
			}
		}
	}
	return false, nil
}
