package xacml

import (
	"encoding/xml"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// linearScan is the reference the PDP's resource index must agree
// with: every policy in insertion order, permit-overrides, first Deny.
func linearScan(order []string, pols map[string]*Policy, req *Request) (Result, error) {
	final := Result{Decision: NotApplicable}
	for _, id := range order {
		res, err := EvaluatePolicy(pols[id], req)
		if err != nil {
			return Result{Decision: Indeterminate, PolicyID: id}, err
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

var (
	genSubjects  = []string{"alice", "bob", "carol"}
	genResources = []string{"r0", "r1", "r2", "r3", " r1 ", "R1"}
	genActions   = []string{"read", "write"}
)

func pick(rng *rand.Rand, l []string) string { return l[rng.Intn(len(l))] }

// genMatch builds a match on attrID in section kind; now and then it
// is case-insensitive or malformed.
func genMatch(rng *rand.Rand, kind, attrID, value string) Match {
	m := Match{
		XMLName:    xml.Name{Local: kind + "Match"},
		MatchID:    MatchStringEqual,
		Value:      AttributeValue{DataType: DataTypeString, Value: value},
		Designator: Designator{XMLName: xml.Name{Local: kind + "AttributeDesignator"}, AttributeID: attrID},
	}
	switch rng.Intn(12) {
	case 0:
		m.MatchID = MatchStringEqualIgnoreCase
	case 1:
		m.MatchID = MatchAnyURIEqual
	case 2:
		m.MatchID = ""
	case 3:
		m.Designator.AttributeID = "" // errors when reached
	case 4:
		m.MatchID = "urn:unsupported" // errors when reached
	}
	return m
}

func genSection(rng *rand.Rand, kind, attrID string, values []string) []TargetEntry {
	var entries []TargetEntry
	for n := rng.Intn(3); n > 0; n-- {
		var e TargetEntry
		for k := 1 + rng.Intn(2); k > 0; k-- {
			if k == 1 || rng.Intn(2) == 0 {
				e.Matches = append(e.Matches, genMatch(rng, kind, attrID, pick(rng, values)))
			} else {
				e.Matches = append(e.Matches, genMatch(rng, kind, "role", pick(rng, []string{"admin", "guest"})))
			}
		}
		entries = append(entries, e)
	}
	return entries
}

func genTarget(rng *rand.Rand) *Target {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1: // subject-only
		return &Target{Subjects: genSection(rng, "Subject", AttrSubjectID, genSubjects)}
	}
	return &Target{
		Subjects:  genSection(rng, "Subject", AttrSubjectID, genSubjects),
		Resources: genSection(rng, "Resource", AttrResourceID, genResources),
		Actions:   genSection(rng, "Action", AttrActionID, genActions),
	}
}

func genPolicy(rng *rand.Rand, id string) *Policy {
	p := &Policy{
		PolicyID:           id,
		RuleCombiningAlgID: pick(rng, []string{RuleCombFirstApplicable, RuleCombPermitOverrides, RuleCombDenyOverrides}),
		Target:             genTarget(rng),
	}
	for n := 1 + rng.Intn(2); n > 0; n-- {
		r := Rule{RuleID: fmt.Sprintf("%s:r%d", id, n), Effect: EffectPermit}
		if rng.Intn(3) == 0 {
			r.Effect = EffectDeny
		}
		if rng.Intn(3) == 0 {
			r.Target = &Target{Actions: genSection(rng, "Action", AttrActionID, genActions)}
		}
		p.Rules = append(p.Rules, r)
	}
	for n := rng.Intn(3); n > 0; n-- {
		p.Obligations.Obligations = append(p.Obligations.Obligations, Obligation{
			ObligationID: fmt.Sprintf("%s:o%d", id, n),
			FulfillOn:    Effect(pick(rng, []string{"", string(EffectPermit), string(EffectDeny)})),
		})
	}
	return p
}

// genRequest builds a request whose resource bag has zero, one or
// several values, possibly repeated and spread over two attributes.
func genRequest(rng *rand.Rand) *Request {
	req := NewRequest(pick(rng, genSubjects), pick(rng, genResources), pick(rng, genActions))
	switch rng.Intn(5) {
	case 0:
		req.Resource.Attributes = nil
	case 1:
		a := &req.Resource.Attributes[0]
		a.Values = append(a.Values, AttributeValue{Value: pick(rng, genResources)})
	case 2:
		req.Resource.Attributes = append(req.Resource.Attributes, attr(AttrResourceID, pick(rng, genResources)))
	}
	if rng.Intn(3) == 0 {
		req.AddSubjectAttribute("role", pick(rng, []string{"admin", "guest"}))
	}
	return req
}

// TestPDPIndexMatchesLinearScan drives the PDP and a linear scan over
// the same random policy store through adds, updates, removals and
// re-adds, and requires every evaluation to agree on decision, policy,
// obligations and error.
func TestPDPIndexMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pdp := NewPDP()
		var order []string
		pols := map[string]*Policy{}
		var ops []string
		for step := 0; step < 400; step++ {
			id := fmt.Sprintf("p%d", rng.Intn(30))
			switch op := rng.Intn(10); {
			case op < 3: // add, or update in place
				pol := genPolicy(rng, id)
				if _, ok := pols[id]; !ok {
					order = append(order, id)
				}
				pols[id] = pol
				pdp.AddPolicy(pol)
				ops = append(ops, "add "+id)
			case op < 4: // remove
				_, had := pols[id]
				if got := pdp.RemovePolicy(id); got != had {
					t.Fatalf("seed %d: RemovePolicy(%s) = %v, want %v", seed, id, got, had)
				}
				if had {
					delete(pols, id)
					for i, o := range order {
						if o == id {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
				}
				ops = append(ops, "remove "+id)
			default:
				req := genRequest(rng)
				want, wantErr := linearScan(order, pols, req)
				got, gotErr := pdp.Evaluate(req)
				if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("seed %d step %d: request %+v\nindex: %+v, %v\nscan:  %+v, %v\nops: %v",
						seed, step, req, got, gotErr, want, wantErr, ops)
				}
			}
		}
		if pdp.Count() != len(pols) {
			t.Fatalf("seed %d: Count = %d, want %d", seed, pdp.Count(), len(pols))
		}
	}
}

// TestPDPEvaluateSingleResourceDoesNotAllocate loads the access
// workload's shape, one resource-keyed policy per stream plus a few
// subject-only ones, and evaluates a permitted single-resource request.
func TestPDPEvaluateSingleResourceDoesNotAllocate(t *testing.T) {
	pdp := NewPDP()
	for i := 0; i < 1000; i++ {
		pdp.AddPolicy(NewPermitPolicy(fmt.Sprintf("p%d", i), NewTarget("", fmt.Sprintf("s%d", i), "read"),
			Obligation{ObligationID: "map", FulfillOn: EffectPermit}))
	}
	for i := 0; i < 5; i++ {
		pdp.AddPolicy(NewPermitPolicy(fmt.Sprintf("admin%d", i), NewTarget("root", "", "")))
	}
	req := NewRequest("alice", "s500", "read")
	res, err := pdp.Evaluate(req)
	if err != nil || res.Decision != Permit || res.PolicyID != "p500" || len(res.Obligations) != 1 {
		t.Fatalf("Evaluate = %+v, %v", res, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = pdp.Evaluate(req) }); n != 0 {
		t.Errorf("Evaluate allocates %.1f times per request, want 0", n)
	}
}
