//===- minic/Lexer.cpp - MiniC lexer ---------------------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "minic/Lexer.h"

#include "support/StringUtils.h"

#include <optional>
#include <string_view>

using namespace mcfi;
using namespace mcfi::minic;

namespace {

struct Keyword {
  std::string_view Text;
  TokKind Kind;
};

constexpr Keyword Keywords[] = {
    {"void", TokKind::KwVoid},         {"char", TokKind::KwChar},
    {"short", TokKind::KwShort},       {"int", TokKind::KwInt},
    {"long", TokKind::KwLong},         {"unsigned", TokKind::KwUnsigned},
    {"float", TokKind::KwFloat},       {"double", TokKind::KwDouble},
    {"struct", TokKind::KwStruct},     {"union", TokKind::KwUnion},
    {"enum", TokKind::KwEnum},         {"typedef", TokKind::KwTypedef},
    {"if", TokKind::KwIf},             {"else", TokKind::KwElse},
    {"while", TokKind::KwWhile},       {"for", TokKind::KwFor},
    {"return", TokKind::KwReturn},     {"break", TokKind::KwBreak},
    {"continue", TokKind::KwContinue}, {"switch", TokKind::KwSwitch},
    {"case", TokKind::KwCase},         {"default", TokKind::KwDefault},
    {"goto", TokKind::KwGoto},         {"sizeof", TokKind::KwSizeof},
    {"NULL", TokKind::KwNull},         {"__asm__", TokKind::KwAsm},
    {"static", TokKind::KwStatic},     {"const", TokKind::KwConst},
    {"do", TokKind::KwDo},
};

/// The keyword spelled \p Id, or Ident. Comparing first letters over 29
/// short literals costs less than hashing the identifier, and builds no
/// string.
TokKind keywordKind(std::string_view Id) {
  for (const Keyword &K : Keywords)
    if (K.Text[0] == Id[0] && K.Text == Id)
      return K.Kind;
  return TokKind::Ident;
}

// Character classes over ASCII bytes, as the "C" locale defines them,
// tested inline instead of through a <cctype> library call per byte.
constexpr bool isSpace(char C) {
  return C == ' ' || (C >= '\t' && C <= '\r');
}
constexpr bool isDigit(char C) { return C >= '0' && C <= '9'; }
constexpr bool isAlpha(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
}
constexpr bool isIdentChar(char C) {
  return isAlpha(C) || isDigit(C) || C == '_';
}
constexpr bool isXDigit(char C) {
  return isDigit(C) || (C >= 'a' && C <= 'f') || (C >= 'A' && C <= 'F');
}

class LexerImpl {
public:
  LexerImpl(const std::string &Source, std::vector<std::string> &Errors)
      : Src(Source), Errors(Errors) {}

  std::vector<Token> run() {
    std::vector<Token> Tokens;
    // MiniC runs about one token per three bytes; an upper bound up front
    // spares the regrowth copies of the whole vector.
    Tokens.reserve(Src.size() / 2 + 1);
    for (;;) {
      skipWhitespaceAndComments();
      Tokens.push_back(next());
      if (Tokens.back().Kind == TokKind::Eof)
        break;
    }
    return Tokens;
  }

private:
  char peekChar(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }

  char getChar() {
    char C = peekChar();
    ++Pos;
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }

  void skipWhitespaceAndComments() {
    for (;;) {
      char C = peekChar();
      if (isSpace(C)) {
        getChar();
        continue;
      }
      if (C == '/' && peekChar(1) == '/') {
        while (peekChar() && peekChar() != '\n')
          getChar();
        continue;
      }
      if (C == '/' && peekChar(1) == '*') {
        getChar();
        getChar();
        while (peekChar() && !(peekChar() == '*' && peekChar(1) == '/'))
          getChar();
        if (peekChar()) {
          getChar();
          getChar();
        } else {
          error("unterminated block comment");
        }
        continue;
      }
      return;
    }
  }

  void error(const std::string &Msg) {
    Errors.push_back(
        formatString("line %u: %s", Line, Msg.c_str()));
  }

  Token make(TokKind K) {
    Token T;
    T.Kind = K;
    T.Loc = {Line, Col};
    return T;
  }

  char unescape(char C) {
    switch (C) {
    case 'n':
      return '\n';
    case 't':
      return '\t';
    case 'r':
      return '\r';
    case '0':
      return '\0';
    case '\\':
      return '\\';
    case '\'':
      return '\'';
    case '"':
      return '"';
    default:
      error("unknown escape sequence");
      return C;
    }
  }

  /// The next token. An unexpected character is reported and skipped by
  /// this loop, not by recursion, so a long run of them cannot exhaust
  /// the stack.
  Token next() {
    std::optional<Token> T;
    while (!(T = scan()))
      ;
    return std::move(*T);
  }

  /// Scans one token at the current position, or reports and consumes
  /// one unexpected character and returns nothing.
  std::optional<Token> scan() {
    Token T = make(TokKind::Eof);
    char C = peekChar();
    if (!C)
      return T;

    if (isAlpha(C) || C == '_') {
      size_t Start = Pos;
      while (Pos < Src.size() && isIdentChar(Src[Pos]))
        ++Pos;
      Col += static_cast<uint32_t>(Pos - Start); // no newline in a name
      std::string_view Id(Src.data() + Start, Pos - Start);
      T.Kind = keywordKind(Id);
      if (T.Kind == TokKind::Ident)
        T.Text = Id;
      return T;
    }

    if (isDigit(C)) {
      // Unsigned, so an overlong literal wraps modulo 2^64 instead of
      // overflowing a signed accumulator (undefined behaviour).
      uint64_t V = 0;
      if (C == '0' && (peekChar(1) == 'x' || peekChar(1) == 'X')) {
        getChar();
        getChar();
        while (isXDigit(peekChar())) {
          char D = getChar();
          unsigned Digit = isDigit(D) ? D - '0' : (D | 0x20) - 'a' + 10;
          V = V * 16 + Digit;
        }
      } else {
        while (isDigit(peekChar()))
          V = V * 10 + static_cast<unsigned>(getChar() - '0');
      }
      // Accept and ignore integer suffixes.
      while (peekChar() == 'l' || peekChar() == 'L' || peekChar() == 'u' ||
             peekChar() == 'U')
        getChar();
      T.Kind = TokKind::IntLit;
      T.IntValue = static_cast<int64_t>(V);
      return T;
    }

    if (C == '"') {
      getChar();
      std::string S;
      while (peekChar() && peekChar() != '"') {
        char D = getChar();
        if (D == '\\')
          D = unescape(getChar());
        S += D;
      }
      if (!peekChar())
        error("unterminated string literal");
      else
        getChar();
      T.Kind = TokKind::StrLit;
      T.Text = std::move(S);
      return T;
    }

    if (C == '\'') {
      getChar();
      char D = getChar();
      if (D == '\\')
        D = unescape(getChar());
      if (peekChar() == '\'')
        getChar();
      else
        error("unterminated character literal");
      T.Kind = TokKind::CharLit;
      T.IntValue = D;
      return T;
    }

    getChar();
    auto two = [&](char Second, TokKind Long, TokKind Short) {
      if (peekChar() == Second) {
        getChar();
        T.Kind = Long;
      } else {
        T.Kind = Short;
      }
      return T;
    };

    switch (C) {
    case '(':
      T.Kind = TokKind::LParen;
      return T;
    case ')':
      T.Kind = TokKind::RParen;
      return T;
    case '{':
      T.Kind = TokKind::LBrace;
      return T;
    case '}':
      T.Kind = TokKind::RBrace;
      return T;
    case '[':
      T.Kind = TokKind::LBracket;
      return T;
    case ']':
      T.Kind = TokKind::RBracket;
      return T;
    case ';':
      T.Kind = TokKind::Semi;
      return T;
    case ',':
      T.Kind = TokKind::Comma;
      return T;
    case ':':
      T.Kind = TokKind::Colon;
      return T;
    case '?':
      T.Kind = TokKind::Question;
      return T;
    case '~':
      T.Kind = TokKind::Tilde;
      return T;
    case '^':
      T.Kind = TokKind::Caret;
      return T;
    case '*':
      return two('=', TokKind::StarAssign, TokKind::Star);
    case '%':
      T.Kind = TokKind::Percent;
      return T;
    case '!':
      return two('=', TokKind::NotEq, TokKind::Bang);
    case '=':
      return two('=', TokKind::EqEq, TokKind::Assign);
    case '/':
      return two('=', TokKind::SlashAssign, TokKind::Slash);
    case '.':
      if (peekChar() == '.' && peekChar(1) == '.') {
        getChar();
        getChar();
        T.Kind = TokKind::Ellipsis;
        return T;
      }
      T.Kind = TokKind::Dot;
      return T;
    case '&':
      return two('&', TokKind::AmpAmp, TokKind::Amp);
    case '|':
      return two('|', TokKind::PipePipe, TokKind::Pipe);
    case '+':
      if (peekChar() == '+') {
        getChar();
        T.Kind = TokKind::PlusPlus;
        return T;
      }
      return two('=', TokKind::PlusAssign, TokKind::Plus);
    case '-':
      if (peekChar() == '>') {
        getChar();
        T.Kind = TokKind::Arrow;
        return T;
      }
      if (peekChar() == '-') {
        getChar();
        T.Kind = TokKind::MinusMinus;
        return T;
      }
      return two('=', TokKind::MinusAssign, TokKind::Minus);
    case '<':
      if (peekChar() == '<') {
        getChar();
        T.Kind = TokKind::Shl;
        return T;
      }
      return two('=', TokKind::Le, TokKind::Lt);
    case '>':
      if (peekChar() == '>') {
        getChar();
        T.Kind = TokKind::Shr;
        return T;
      }
      return two('=', TokKind::Ge, TokKind::Gt);
    default:
      error(formatString("unexpected character '%c'", C));
      return std::nullopt;
    }
  }

  const std::string &Src;
  std::vector<std::string> &Errors;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
};

} // namespace

std::vector<Token> mcfi::minic::lex(const std::string &Source,
                                    std::vector<std::string> &Errors) {
  return LexerImpl(Source, Errors).run();
}
