"""The paper's own grammars, verbatim (Figures 1, 3 and 7)."""

from __future__ import annotations

from repro.corpus.registry import GrammarSpec, PaperRow, register
from repro.grammar import Grammar, load_grammar

FIGURE1 = """
%grammar figure1
%start stmt
stmt : IF expr THEN stmt ELSE stmt
     | IF expr THEN stmt
     | expr '?' stmt stmt
     | arr '[' expr ']' ':=' expr
     ;
expr : num | expr '+' expr ;
num  : DIGIT | num DIGIT ;
"""

FIGURE3 = """
%grammar figure3
%start S
S : T | S T ;
T : X | Y ;
X : 'a' ;
Y : 'a' 'a' 'b' ;
"""

FIGURE7 = """
%grammar figure7
%start S
S : N | N 'c' ;
N : 'n' N 'd' | 'n' N 'c' | 'n' A 'b' | 'n' B ;
A : 'a' ;
B : 'a' 'b' 'c' | 'a' 'b' 'd' ;
"""

def figure1() -> Grammar:
    return load_grammar(FIGURE1)


def figure3() -> Grammar:
    return load_grammar(FIGURE3)


def figure7() -> Grammar:
    return load_grammar(FIGURE7)


register(
    GrammarSpec(
        name="figure1",
        category="paper",
        loader=figure1,
        ambiguous=True,
        exact=True,
        paper=PaperRow(3, 9, 24, 3, True, 3, 0, 0, 0.072, 0.024),
    )
)
register(
    GrammarSpec(
        name="figure3",
        category="paper",
        loader=figure3,
        ambiguous=False,
        exact=True,
        paper=PaperRow(4, 7, 10, 1, False, 0, 1, 0, 0.010, 0.010),
    )
)
register(
    GrammarSpec(
        name="figure7",
        category="paper",
        loader=figure7,
        ambiguous=True,
        exact=True,
        paper=PaperRow(4, 10, 16, 2, True, 2, 0, 0, 0.016, 0.008),
    )
)
