"""Exact scalars: arbitrary-precision rationals and prime fields F_p.

Rationals are gmpy2.mpq when available (much faster elimination), else
fractions.Fraction; both print as "p/q" with reduced positive denominator.
Prime-field elements are residue classes printed as "r mod p".  No floats
exist anywhere in this package.
"""

import re
from typing import NamedTuple, Optional

from .errors import InvalidField, MalformedInput, Unsupported, brief

try:
    from gmpy2 import mpq as _rational
except ImportError:  # gmpy2 is the optional `fast` extra; without it, Fraction
    from fractions import Fraction as _rational

_RATIONAL_TYPE = type(_rational(0))
_SCALAR_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_MOD_RE = re.compile(r"(-?[0-9]+)\s+mod\s+([0-9]+)")

# Miller-Rabin on the thirteen bases 2..41 decides primality below psi_13
# (Sorenson and Webster, Math. Comp. 2017); past it no fixed set is proven.
_PSI13, _BASES = 3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def rational(num, den=1):
    """Exact rational from integers; reduced, positive denominator."""
    return _rational(num, den)


class Fp:
    """An element of F_p, stored as the residue in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise InvalidField(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return None

    def __add__(self, other):
        if type(other) is Fp and other.p == self.p:
            return Fp(self.v + other.v, self.p)
        o = self._lift(other)
        return NotImplemented if o is None else Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        if type(other) is Fp and other.p == self.p:
            return Fp(self.v * other.v, self.p)
        o = self._lift(other)
        return NotImplemented if o is None else Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n: int):
        if n < 0 and self.v == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return Fp(pow(self.v, n, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        # An int is equal only to its own residue (Fp(1, 5) != 6), so that
        # equal values hash equally.
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v} mod {self.p}"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_int(text: str, what: str = "integer") -> int:
    """The integer that text from outside names, only in the form str(k) writes
    it: no sign "+", blanks, underscores, leading zeros or non-ASCII digits."""
    try:
        k = int(text)
        if str(k) == text:
            return k
    except ValueError:
        pass
    raise MalformedInput(f"{what} {brief(text)} is not a decimal integer")


class _FieldSpec(NamedTuple):
    kind: str
    p: Optional[int] = None


class FieldSpec(_FieldSpec):
    """Descriptor for the scalar field: kind 'rational' or 'prime' (with p)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind == "rational":
            if self.p is not None:
                raise InvalidField("rational field takes no modulus")
        elif self.kind == "prime":
            if isinstance(self.p, int) and self.p >= _PSI13:
                raise Unsupported(f"modulus {brief(self.p)} is at or past {_PSI13}, where primality is not decided")
            if not isinstance(self.p, int) or not _is_prime(self.p):
                raise InvalidField(f"modulus {brief(self.p)} is not prime")
        else:
            raise InvalidField(f"unknown field kind {brief(self.kind)}")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace validates as the constructor does
        return cls(*iterable)

    def __str__(self):
        return "QQ" if self.kind == "rational" else f"GF({self.p})"

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "rational" else self.p

    def _require_odd(self, what: str):
        if self.characteristic == 2:
            raise Unsupported(f"{what} needs 2 invertible; characteristic 2 is refused")

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        if self.kind == "rational":
            return _rational(n)
        return Fp(n, self.p)

    def coerce(self, x):
        """Accept a scalar of this field (ints are lifted); InvalidField otherwise."""
        if isinstance(x, int):
            return self.from_int(x)
        if self.kind == "rational":
            if isinstance(x, _RATIONAL_TYPE):
                return x
            raise InvalidField(f"not a rational scalar: {brief(x)}")
        if isinstance(x, Fp):
            if x.p != self.p:
                raise InvalidField(f"modulus mismatch: {x.p} vs {self.p}")
            return x
        raise InvalidField(f"not an F_{self.p} scalar: {brief(x)}")

    def parse(self, text: str):
        """Parse "p/q" (or "r mod p" for prime fields) in ASCII digits, with blanks
        around it allowed; exact, never floats."""
        if not isinstance(text, str):
            raise InvalidField(f"scalar literal must be a string, not {brief(text)}")
        s = text.strip()
        try:
            if self.kind == "prime":
                m = _MOD_RE.fullmatch(s)
                if m:
                    if int(m.group(2)) != self.p:
                        raise InvalidField(f"literal {brief(s)} has wrong modulus for F_{self.p}")
                    return Fp(int(m.group(1)), self.p)
            if not _SCALAR_RE.fullmatch(s):
                raise InvalidField(f"bad scalar literal {brief(s)}")
            if "/" in s:
                a, b = s.split("/")
                num, den = int(a), int(b)
                if den == 0:
                    raise InvalidField(f"zero denominator in {brief(s)}")
            else:
                num, den = int(s), 1
        except ValueError as exc:  # int() reads at most sys.get_int_max_str_digits() digits
            raise InvalidField(f"scalar literal of {len(s)} characters has too many digits") from exc
        if self.kind == "rational":
            return _rational(num, den)
        if den % self.p == 0:
            raise InvalidField(f"denominator of {brief(s)} is not invertible mod {self.p}")
        return Fp(num * pow(den, -1, self.p), self.p)

    def fmt(self, x) -> str:
        x = self.coerce(x)
        if self.kind == "rational":
            return str(x)
        return f"{x.v} mod {x.p}"

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    @classmethod
    def from_json(cls, obj) -> "FieldSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InvalidField(f"bad field descriptor {brief(obj)}")
        if obj["kind"] == "rational":
            return cls("rational")
        if obj["kind"] == "prime":
            return cls("prime", obj.get("p"))
        raise InvalidField(f"unknown field kind {brief(obj.get('kind'))}")


QQ = FieldSpec("rational")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime", p)
