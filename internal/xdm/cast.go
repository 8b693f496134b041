package xdm

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"time"

	"repro/internal/dom"
)

// Cast converts an atomic value to the target type per the XPath 2.0
// casting matrix. Nodes must be atomized first. An unsupported or
// failing conversion returns an error (err:FORG0001 family).
func Cast(v Item, target Type) (Item, error) {
	if v.Type().IsNode() {
		v = Atomize(v)
	}
	if v.Type() == target {
		return v, nil
	}
	// Casting from string and untypedAtomic goes through the lexical
	// form; so does casting *to* string.
	switch v.Type() {
	case TString, TUntypedAtomic:
		return CastString(v.String(), target)
	}
	switch target {
	case TString:
		return String(v.String()), nil
	case TUntypedAtomic:
		return UntypedAtomic(v.String()), nil
	case TAnyURI:
		return nil, castErr(v, target)
	}

	switch v.Type() {
	case TAnyURI:
		return castFromString(strings.TrimSpace(v.String()), target)
	case TInteger:
		return castFromInteger(v.(Integer), target)
	case TDecimal:
		return castFromDecimal(v.(Decimal), target)
	case TDouble:
		return castFromDouble(v.(Double), target)
	case TBoolean:
		b := v.(Boolean)
		n := int64(0)
		if b {
			n = 1
		}
		switch target {
		case TInteger:
			return Integer(n), nil
		case TDecimal:
			return DecimalFromInt(n), nil
		case TDouble:
			return Double(n), nil
		}
	case TDateTime:
		dt := v.(DateTime)
		switch target {
		case TDate:
			y, m, d := dt.T.Date()
			return DateTime{T: time.Date(y, m, d, 0, 0, 0, 0, dt.T.Location()), Kind: TDate, HasTZ: dt.HasTZ}, nil
		case TTime:
			return DateTime{T: dt.T, Kind: TTime, HasTZ: dt.HasTZ}, nil
		}
	case TDate:
		dt := v.(DateTime)
		if target == TDateTime {
			return DateTime{T: dt.T, Kind: TDateTime, HasTZ: dt.HasTZ}, nil
		}
	case TDuration, TYearMonthDuration, TDayTimeDuration:
		d := v.(Duration)
		switch target {
		case TYearMonthDuration:
			return Duration{Months: d.Months, Kind: TYearMonthDuration}, nil
		case TDayTimeDuration:
			return Duration{Nanos: d.Nanos, Kind: TDayTimeDuration}, nil
		case TDuration:
			return Duration{Months: d.Months, Nanos: d.Nanos, Kind: TDuration}, nil
		}
	}
	return nil, castErr(v, target)
}

// CastString casts the lexical form s to the target type, as Cast
// casts an xs:string holding s, without boxing s first: xs:string and
// xs:untypedAtomic take s as it is, every other type its form with the
// surrounding whitespace trimmed.
func CastString(s string, target Type) (Item, error) {
	switch target {
	case TString:
		return String(s), nil
	case TUntypedAtomic:
		return UntypedAtomic(s), nil
	case TAnyURI:
		return AnyURI(strings.TrimSpace(s)), nil
	}
	return castFromString(strings.TrimSpace(s), target)
}

func castErr(v Item, target Type) error {
	return fmt.Errorf("xdm: cannot cast %s %q to %s", v.Type(), v.String(), target)
}

// Castable reports whether Cast would succeed.
func Castable(v Item, target Type) bool {
	_, err := Cast(v, target)
	return err == nil
}

func castFromString(s string, target Type) (Item, error) {
	fail := func() (Item, error) {
		return nil, fmt.Errorf("xdm: invalid lexical form %q for %s", s, target)
	}
	switch target {
	case TBoolean:
		switch s {
		case "true", "1":
			return Boolean(true), nil
		case "false", "0":
			return Boolean(false), nil
		}
		return fail()
	case TInteger:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fail()
		}
		return Integer(n), nil
	case TDecimal:
		d, err := DecimalFromString(s)
		if err != nil {
			return fail()
		}
		return d, nil
	case TDouble:
		switch s {
		case "INF", "+INF":
			return Double(math.Inf(1)), nil
		case "-INF":
			return Double(math.Inf(-1)), nil
		case "NaN":
			return Double(math.NaN()), nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fail()
		}
		return Double(f), nil
	case TDate, TTime, TDateTime:
		dt, err := ParseDateTime(s, target)
		if err != nil {
			return fail()
		}
		return dt, nil
	case TDuration, TYearMonthDuration, TDayTimeDuration:
		d, err := ParseDuration(s)
		if err != nil {
			return fail()
		}
		if target == TYearMonthDuration && d.Nanos != 0 {
			return fail()
		}
		if target == TDayTimeDuration && d.Months != 0 {
			return fail()
		}
		d.Kind = target
		return d, nil
	case TQName:
		if i := strings.IndexByte(s, ':'); i > 0 {
			return QNameValue{Name: dom.QName{Prefix: s[:i], Local: s[i+1:]}}, nil
		}
		return QNameValue{Name: dom.Name(s)}, nil
	}
	return fail()
}

func castFromInteger(v Integer, target Type) (Item, error) {
	switch target {
	case TDecimal:
		return DecimalFromInt(int64(v)), nil
	case TDouble:
		return Double(float64(v)), nil
	case TBoolean:
		return Boolean(v != 0), nil
	}
	return nil, castErr(v, target)
}

func castFromDecimal(v Decimal, target Type) (Item, error) {
	switch target {
	case TInteger:
		// Truncate toward zero.
		q := new(big.Int).Quo(v.Rat().Num(), v.Rat().Denom())
		if !q.IsInt64() {
			return nil, fmt.Errorf("xdm: decimal overflows xs:integer")
		}
		return Integer(q.Int64()), nil
	case TDouble:
		return Double(v.Float64()), nil
	case TBoolean:
		return Boolean(v.Rat().Sign() != 0), nil
	}
	return nil, castErr(v, target)
}

func castFromDouble(v Double, target Type) (Item, error) {
	f := float64(v)
	switch target {
	case TInteger:
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("xdm: cannot cast %s to xs:integer", formatDouble(f))
		}
		return Integer(int64(math.Trunc(f))), nil
	case TDecimal:
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("xdm: cannot cast %s to xs:decimal", formatDouble(f))
		}
		r := new(big.Rat)
		r.SetFloat64(f)
		return Decimal{r: r}, nil
	case TBoolean:
		return Boolean(!(f == 0 || math.IsNaN(f))), nil
	}
	return nil, castErr(v, target)
}

// ParseDateTime parses the XSD lexical form of date, time or dateTime.
func ParseDateTime(s string, kind Type) (DateTime, error) {
	hasTZ := false
	loc := time.UTC
	body := s
	// Trailing timezone: Z or ±hh:mm.
	if strings.HasSuffix(body, "Z") {
		hasTZ = true
		body = body[:len(body)-1]
	} else if len(body) >= 6 {
		tz := body[len(body)-6:]
		if (tz[0] == '+' || tz[0] == '-') && tz[3] == ':' {
			h, err1 := strconv.Atoi(tz[1:3])
			m, err2 := strconv.Atoi(tz[4:])
			if err1 == nil && err2 == nil {
				off := h*3600 + m*60
				if tz[0] == '-' {
					off = -off
				}
				loc = time.FixedZone(tz, off)
				hasTZ = true
				body = body[:len(body)-6]
			}
		}
	}
	var layout string
	switch kind {
	case TDate:
		layout = "2006-01-02"
	case TTime:
		layout = "15:04:05"
	default:
		layout = "2006-01-02T15:04:05"
	}
	// Fractional seconds.
	if kind != TDate && strings.Contains(body, ".") {
		layout += ".999999999"
	}
	t, err := time.ParseInLocation(layout, body, loc)
	if err != nil {
		return DateTime{}, fmt.Errorf("xdm: invalid %s %q", kind, s)
	}
	return DateTime{T: t, Kind: kind, HasTZ: hasTZ}, nil
}

// ParseDuration parses the XSD duration lexical form
// (-)PnYnMnDTnHnMn(.n)S.
func ParseDuration(s string) (Duration, error) {
	orig := s
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if !strings.HasPrefix(s, "P") || len(s) < 2 {
		return Duration{}, fmt.Errorf("xdm: invalid duration %q", orig)
	}
	s = s[1:]
	datePart, timePart := s, ""
	if i := strings.IndexByte(s, 'T'); i >= 0 {
		datePart, timePart = s[:i], s[i+1:]
		if timePart == "" {
			return Duration{}, fmt.Errorf("xdm: invalid duration %q", orig)
		}
	}
	var months int64
	var nanos time.Duration
	readNum := func(str string) (float64, string, byte, error) {
		i := 0
		for i < len(str) && (str[i] >= '0' && str[i] <= '9' || str[i] == '.') {
			i++
		}
		if i == 0 || i == len(str) {
			return 0, "", 0, fmt.Errorf("xdm: invalid duration %q", orig)
		}
		f, err := strconv.ParseFloat(str[:i], 64)
		if err != nil {
			return 0, "", 0, fmt.Errorf("xdm: invalid duration %q", orig)
		}
		return f, str[i+1:], str[i], nil
	}
	seen := false
	for datePart != "" {
		f, rest, unit, err := readNum(datePart)
		if err != nil {
			return Duration{}, err
		}
		switch unit {
		case 'Y':
			months += int64(f) * 12
		case 'M':
			months += int64(f)
		case 'D':
			nanos += time.Duration(f * float64(24*time.Hour))
		default:
			return Duration{}, fmt.Errorf("xdm: invalid duration %q", orig)
		}
		datePart = rest
		seen = true
	}
	for timePart != "" {
		f, rest, unit, err := readNum(timePart)
		if err != nil {
			return Duration{}, err
		}
		switch unit {
		case 'H':
			nanos += time.Duration(f * float64(time.Hour))
		case 'M':
			nanos += time.Duration(f * float64(time.Minute))
		case 'S':
			nanos += time.Duration(f * float64(time.Second))
		default:
			return Duration{}, fmt.Errorf("xdm: invalid duration %q", orig)
		}
		timePart = rest
		seen = true
	}
	if !seen {
		return Duration{}, fmt.Errorf("xdm: invalid duration %q", orig)
	}
	if neg {
		months, nanos = -months, -nanos
	}
	return Duration{Months: months, Nanos: nanos, Kind: TDuration}, nil
}
