package xacml

import (
	"encoding/xml"
	"fmt"
	"strings"
)

// Request is an XACML access request: attribute bags for the subject,
// the resource and the action.
type Request struct {
	XMLName  xml.Name     `xml:"Request"`
	Subject  AttributeBag `xml:"Subject"`
	Resource AttributeBag `xml:"Resource"`
	Action   AttributeBag `xml:"Action"`
}

// AttributeBag is a list of attributes of one request section.
type AttributeBag struct {
	Attributes []RequestAttribute `xml:"Attribute"`
}

// RequestAttribute is one attribute with one or more values.
type RequestAttribute struct {
	AttributeID string           `xml:"AttributeId,attr"`
	DataType    string           `xml:"DataType,attr,omitempty"`
	Values      []AttributeValue `xml:"AttributeValue"`
}

// NewRequest builds a request with the conventional subject-id,
// resource-id and action-id attributes.
func NewRequest(subject, resource, action string) *Request {
	return &Request{
		Subject:  AttributeBag{Attributes: []RequestAttribute{attr(AttrSubjectID, subject)}},
		Resource: AttributeBag{Attributes: []RequestAttribute{attr(AttrResourceID, resource)}},
		Action:   AttributeBag{Attributes: []RequestAttribute{attr(AttrActionID, action)}},
	}
}

func attr(id, value string) RequestAttribute {
	return RequestAttribute{
		AttributeID: id,
		DataType:    DataTypeString,
		Values:      []AttributeValue{{DataType: DataTypeString, Value: value}},
	}
}

// AddSubjectAttribute appends an extra subject attribute (e.g. a role).
func (r *Request) AddSubjectAttribute(id, value string) {
	r.Subject.Attributes = append(r.Subject.Attributes, attr(id, value))
}

// SubjectID returns the conventional subject identifier, or "".
func (r *Request) SubjectID() string { return r.Subject.first(AttrSubjectID) }

// ResourceID returns the conventional resource identifier, or "".
func (r *Request) ResourceID() string { return r.Resource.first(AttrResourceID) }

// ActionID returns the conventional action identifier, or "".
func (r *Request) ActionID() string { return r.Action.first(AttrActionID) }

func (b AttributeBag) first(id string) string {
	for _, a := range b.Attributes {
		if a.AttributeID == id && len(a.Values) > 0 {
			return strings.TrimSpace(a.Values[0].Value)
		}
	}
	return ""
}

// single reports how many distinct values an attribute id has in the
// bag, capped at 2, and the value when there is exactly one. It does
// not allocate.
func (b AttributeBag) single(id string) (string, int) {
	var first string
	n := 0
	for _, a := range b.Attributes {
		if a.AttributeID != id {
			continue
		}
		for _, v := range a.Values {
			switch s := strings.TrimSpace(v.Value); {
			case n == 0:
				first, n = s, 1
			case s != first:
				return "", 2
			}
		}
	}
	return first, n
}

// values returns all values of an attribute id in the bag.
func (b AttributeBag) values(id string) []string {
	var out []string
	for _, a := range b.Attributes {
		if a.AttributeID != id {
			continue
		}
		for _, v := range a.Values {
			out = append(out, strings.TrimSpace(v.Value))
		}
	}
	return out
}

// ParseRequest parses a request XML document.
func ParseRequest(data []byte) (*Request, error) {
	var r Request
	if err := xml.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("xacml: parse request: %w", err)
	}
	return &r, nil
}

// Marshal renders the request as indented XML.
func (r *Request) Marshal() ([]byte, error) {
	return xml.MarshalIndent(r, "", "  ")
}
