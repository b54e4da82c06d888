"""The value of a digit string from the backward column: the tests' reference
for `string_value` and the bridge's product tree."""

from operator import mul


def column_value(alpha: tuple, t: list, a) -> tuple:
    """sum_p a[p-1] * X_{-p} from the backward column t (`backward_column`)
    and the coordinate rows alpha (`column_weights`).

    Takes the k-1 shifted column sums S_j = sum_p a[p-1] t[p+j], then
    applies the alpha rows to them.  S_{k-1} reads t up to index
    len(a) + k - 2; a shorter column would cut the sums short.
    """
    m = len(a)
    assert len(t) >= m + len(alpha), "the column must reach index len(a) + k - 2"
    sums = [sum(map(mul, a, t[j:j + m])) for j in range(1, len(alpha) + 1)]
    return tuple([sum(map(mul, row, sums)) for row in alpha])
