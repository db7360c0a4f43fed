"""Frozen reference rows for the distribution tables and sequences.

Coefficient lists are constant-term first; an empty list is the zero
polynomial (length-1 rows: there are no desarrangements of length 1).
"""

TABLE_DES = {
    0: [1],
    1: [],
    2: [0, 1],
    3: [0, 2],
    4: [0, 3, 5, 1],
    5: [0, 4, 27, 13],
    6: [0, 5, 94, 137, 28, 1],
    7: [0, 6, 270, 952, 566, 60],
    8: [0, 7, 699, 5093, 6825, 2085, 123, 1],
    9: [0, 8, 1701, 23195, 60513, 40649, 7179, 251],
}

TABLE_PK = {
    0: [1],
    1: [],
    2: [1],
    3: [2],
    4: [4, 5],
    5: [8, 36],
    6: [16, 188, 61],
    7: [32, 864, 958],
    8: [64, 3728, 9656, 1385],
    9: [128, 15552, 79760, 38056],
}

TABLE_VAL = {
    0: [1],
    1: [],
    2: [1],
    3: [0, 2],
    4: [1, 8],
    5: [0, 28, 16],
    6: [1, 88, 176],
    7: [0, 270, 1312, 272],
    8: [1, 816, 8256, 5760],
    9: [0, 2456, 47520, 75584, 7936],
}

TABLE_DASC = {
    0: [1],
    1: [],
    2: [1],
    3: [2],
    4: [6, 3],
    5: [29, 11, 4],
    6: [130, 111, 19, 5],
    7: [798, 705, 316, 29, 6],
    8: [5125, 6242, 2626, 792, 41, 7],
    9: [38726, 52830, 31794, 8220, 1863, 55, 8],
}

TABLE_DDES = {
    0: [1],
    1: [],
    2: [1],
    3: [2],
    4: [8, 0, 1],
    5: [31, 9, 4],
    6: [160, 66, 38, 0, 1],
    7: [910, 622, 262, 54, 6],
    8: [6077, 5254, 2781, 576, 144, 0, 1],
    9: [45026, 49708, 27682, 9264, 1565, 243, 8],
}

STAT_TABLES = {
    "des": TABLE_DES,
    "pk": TABLE_PK,
    "val": TABLE_VAL,
    "dasc": TABLE_DASC,
    "ddes": TABLE_DDES,
}

DERANGEMENT_NUMBERS = [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961, 14684570]


def derangement_numbers(n_max):
    """d_0..d_n_max from d_n = (n-1)(d_{n-1} + d_{n-2}), independent of the package."""
    d = [1, 0]
    for n in range(2, n_max + 1):
        d.append((n - 1) * (d[-1] + d[-2]))
    return d[:n_max + 1]


FINE_NUMBERS = [0, 1, 0, 1, 2, 6, 18, 57, 186, 622, 2120, 7338]
JACOBSTHAL_NUMBERS = [0, 1, 1, 3, 5, 11, 21, 43, 85, 171, 341, 683]
# a_11 by the defining recurrence is 13035 = C_10 - a_10; the printed table
# value 3761 at index 11 does not satisfy the recurrence.
A_SEQUENCE = [1, 0, 1, 1, 4, 10, 32, 100, 329, 1101, 3761, 13035]
CATALAN_NUMBERS = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
FIBONACCI_NUMBERS = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
