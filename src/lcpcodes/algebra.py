"""Group algebras R[G] over product rings, with the CRT decomposition.

An element of R[G] is the coefficient tuple (a_{g_0}, ..., a_{g_{n-1}}) in
the fixed group order; each coefficient is a product-ring element.  Keeping
coefficients in the product representation makes the component-splitting map
a transpose (``component_rows``, inverted by ``from_component_rows``):
chain-ring algebras are simply the s = 1 case.
"""

from __future__ import annotations

import itertools

from .errors import ValidationError
from .groups import FiniteGroup
from .rings import ProductRing

__all__ = ["GroupAlgebra", "component_rows", "from_component_rows"]


def component_rows(a) -> tuple:
    """An element as its s component rows: row j holds the n coefficients'
    parts in ring component j."""
    return tuple(zip(*a))


def from_component_rows(rows) -> tuple:
    """The element whose component rows are ``rows`` (inverse of
    ``component_rows``)."""
    return tuple(zip(*rows))


class GroupAlgebra:
    """R[G] for a product ring R and Cayley-table group G."""

    def __init__(self, ring: ProductRing, group: FiniteGroup):
        self.ring = ring
        self.group = group
        self.size = ring.size**group.n
        self._components = None

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebra)
            and self.ring == other.ring
            and self.group == other.group
        )

    def __hash__(self):
        return hash((self.ring, self.group))

    def __repr__(self):
        return f"({self.ring!r})[G], |G| = {self.group.n}"

    # -- elements ---------------------------------------------------------------

    def zero(self):
        return (self.ring.zero,) * self.group.n

    def one(self):
        return (self.ring.one,) + (self.ring.zero,) * (self.group.n - 1)

    def check(self, a):
        if not isinstance(a, (tuple, list)):
            raise ValidationError(f"element {a!r} must be a tuple of coefficients")
        self._arity(a)
        return self.ring.check_row(a)

    def elements(self):
        """Iterate the whole algebra (callers cap the size)."""
        coeffs = self.ring.elements()
        for combo in itertools.product(coeffs, repeat=self.group.n):
            yield combo

    # -- module and ring operations ----------------------------------------------

    def _arity(self, *elements):
        for a in elements:
            if len(a) != self.group.n:
                raise ValidationError(
                    f"element has {len(a)} coefficients, group order is {self.group.n}"
                )

    def add(self, a, b):
        self._arity(a, b)
        R = self.ring
        return tuple(R.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        self._arity(a, b)
        R = self.ring
        return tuple(R.sub(x, y) for x, y in zip(a, b))

    def scale(self, c, a):
        self._arity(a)
        R = self.ring
        return tuple(R.mul(c, x) for x in a)

    def mul(self, a, b):
        """Convolution product: coefficient i is sum_j a_j * b_{(g_j^-1) g_i}."""
        self._arity(a, b)
        R = self.ring
        t, inv, n = self.group.table, self.group.inv, self.group.n
        zero = R.zero
        out = []
        for i in range(n):
            acc = zero
            for j in range(n):
                aj = a[j]
                if aj != zero:
                    acc = R.add(acc, R.mul(aj, b[t[inv[j]][i]]))
            out.append(acc)
        return tuple(out)

    # -- CRT splitting --------------------------------------------------------------

    @property
    def components(self) -> tuple["GroupAlgebra", ...]:
        """The chain-ring algebras R_j[G], sharing this algebra's group; a
        chain-ring algebra is its own component, and is not kept on itself."""
        if self.ring.s == 1:
            return (self,)
        if self._components is None:
            self._components = tuple(
                GroupAlgebra(ProductRing([c]), self.group) for c in self.ring.components
            )
        return self._components

    # -- display ------------------------------------------------------------------

    def format_element(self, a) -> str:
        R = self.ring
        terms = []
        for i, c in enumerate(a):
            if c == R.zero:
                continue
            cs = R.format_element(c)
            if i == 0:
                terms.append(cs)
            elif c == R.one:
                terms.append(self.group.labels[i])
            else:
                terms.append(f"{cs}*{self.group.labels[i]}")
        return " + ".join(terms) if terms else "0"
