package main

// The query predicate encoding zend accepts (see docs/serve.md), built
// as a tree the benchmark can both send and evaluate on concrete values.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

type pnode struct {
	All []*pnode `json:"all,omitempty"`
	Any []*pnode `json:"any,omitempty"`
	Not *pnode   `json:"not,omitempty"`
	Cmp *pcmp    `json:"cmp,omitempty"`
}

type pcmp struct {
	Lhs pterm  `json:"lhs"`
	Op  string `json:"op"`
	Rhs pterm  `json:"rhs"`
}

type pterm struct {
	Ref string          `json:"ref,omitempty"`
	Lit json.RawMessage `json:"lit,omitempty"`
}

func all(ps ...*pnode) *pnode   { return &pnode{All: ps} }
func anyOf(ps ...*pnode) *pnode { return &pnode{Any: ps} }
func not(p *pnode) *pnode       { return &pnode{Not: p} }

func cmpNum(ref, op string, n uint64) *pnode {
	return &pnode{Cmp: &pcmp{Lhs: pterm{Ref: ref}, Op: op, Rhs: pterm{Lit: json.RawMessage(strconv.FormatUint(n, 10))}}}
}

func cmpBool(ref string, b bool) *pnode {
	return &pnode{Cmp: &pcmp{Lhs: pterm{Ref: ref}, Op: "eq", Rhs: pterm{Lit: json.RawMessage(strconv.FormatBool(b))}}}
}

func cmpRef(lhs, op, rhs string) *pnode {
	return &pnode{Cmp: &pcmp{Lhs: pterm{Ref: lhs}, Op: op, Rhs: pterm{Ref: rhs}}}
}

// eval decides the predicate on a concrete input and the model's output
// for it. Every referenced field is a bool or an unsigned integer.
func (p *pnode) eval(in, out reflect.Value) (bool, error) {
	switch {
	case p.All != nil:
		for _, k := range p.All {
			if v, err := k.eval(in, out); err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case p.Any != nil:
		for _, k := range p.Any {
			if v, err := k.eval(in, out); err != nil || v {
				return v, err
			}
		}
		return false, nil
	case p.Not != nil:
		v, err := p.Not.eval(in, out)
		return !v, err
	}
	l, err := p.Cmp.Lhs.value(in, out)
	if err != nil {
		return false, err
	}
	r, err := p.Cmp.Rhs.value(in, out)
	if err != nil {
		return false, err
	}
	switch p.Cmp.Op {
	case "eq":
		return l == r, nil
	case "ne":
		return l != r, nil
	case "lt":
		return l < r, nil
	case "le":
		return l <= r, nil
	case "gt":
		return l > r, nil
	case "ge":
		return l >= r, nil
	}
	return false, fmt.Errorf("unknown op %q", p.Cmp.Op)
}

// value reads a term as a number; booleans read as 0 or 1.
func (t pterm) value(in, out reflect.Value) (uint64, error) {
	if t.Ref == "" {
		switch s := string(t.Lit); s {
		case "true":
			return 1, nil
		case "false":
			return 0, nil
		default:
			return strconv.ParseUint(s, 10, 64)
		}
	}
	segs := strings.Split(t.Ref, ".")
	v := in
	if segs[0] == "out" {
		v = out
	}
	for _, s := range segs[1:] {
		if v.Kind() != reflect.Struct {
			return 0, fmt.Errorf("ref %s: %s is not an object", t.Ref, v.Type())
		}
		if v = v.FieldByName(s); !v.IsValid() {
			return 0, fmt.Errorf("ref %s: no field %s", t.Ref, s)
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return 1, nil
		}
		return 0, nil
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return v.Uint(), nil
	}
	return 0, fmt.Errorf("ref %s: unsupported type %s", t.Ref, v.Type())
}
