//===- bench/BenchJson.h - minimal JSON emit/parse for bench gating -*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependency-free JSON layer underneath `--json` / `--baseline` on
/// the bench binaries. Two halves:
///
///   * JsonWriter — streaming writer with just the shapes the benches
///     emit (objects, arrays, strings, integers, doubles).
///   * JsonValue / parseJson — a small recursive-descent reader for the
///     committed baseline files (bench/baselines/*.json). It accepts the
///     JSON subset the writer produces; it is not a general validator.
///
/// The CI bench-regression gate compares deterministic dynamic-check
/// counts, so the files round-trip exactly; timings are emitted for
/// artifact upload but never compared.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_BENCH_BENCHJSON_H
#define SOFTBOUND_BENCH_BENCHJSON_H

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace softbound {
namespace benchjson {

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

/// Streaming JSON writer with automatic comma placement and two-space
/// indentation. Usage:
///
///   JsonWriter W;
///   W.beginObject();
///   W.key("workloads"); W.beginObject(); ... W.endObject();
///   W.endObject();
///   W.writeTo(Path);
class JsonWriter {
public:
  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  void key(const std::string &K) {
    comma();
    indent();
    Out += quote(K) + ": ";
    PendingValue = true;
  }

  void value(const std::string &S) { emit(quote(S)); }
  void value(const char *S) { emit(quote(S)); }
  void value(uint64_t V) { emit(std::to_string(V)); }
  void value(int64_t V) { emit(std::to_string(V)); }
  void value(int V) { emit(std::to_string(V)); }
  void value(unsigned V) { emit(std::to_string(V)); }
  void value(double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    emit(Buf);
  }

  template <typename T> void kv(const std::string &K, T V) {
    key(K);
    value(V);
  }

  const std::string &str() const { return Out; }

  /// Writes the document plus trailing newline; false on I/O failure.
  bool writeTo(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    bool OK = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
    OK = std::fputc('\n', F) != EOF && OK;
    return std::fclose(F) == 0 && OK;
  }

  /// writeTo, then says so on stdout; exits 1 when the write fails.
  void writeToOrExit(const std::string &Path) const {
    if (!writeTo(Path)) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      std::exit(1);
    }
    std::printf("\nwrote %s\n", Path.c_str());
  }

private:
  static std::string quote(const std::string &S) {
    std::string Q = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        Q += '\\';
      Q += C;
    }
    return Q + '"';
  }

  void open(char C) {
    if (!PendingValue) {
      comma();
      indent();
    }
    PendingValue = false;
    Out += C;
    ++Depth;
    NeedComma = false;
  }

  void close(char C) {
    --Depth;
    Out += '\n';
    indent();
    Out += C;
    NeedComma = true;
  }

  void emit(const std::string &V) {
    if (!PendingValue) {
      comma();
      indent();
    }
    PendingValue = false;
    Out += V;
    NeedComma = true;
  }

  void comma() {
    if (NeedComma)
      Out += ',';
    if (!Out.empty())
      Out += '\n';
    NeedComma = false;
  }

  void indent() { Out.append(static_cast<size_t>(Depth) * 2, ' '); }

  std::string Out;
  int Depth = 0;
  bool NeedComma = false;
  bool PendingValue = false;
};

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } K =
      Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;
  /// Object keys in document order (Obj itself sorts alphabetically).
  /// writeJsonValue re-emits in this order, so a read-modify-write of a
  /// baseline file preserves the committed section layout.
  std::vector<std::string> ObjOrder;

  bool isObject() const { return K == Kind::Object; }
  bool isNumber() const { return K == Kind::Number; }

  /// Object member lookup; null-kind value when absent or not an object.
  const JsonValue *get(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    auto It = Obj.find(Key);
    return It == Obj.end() ? nullptr : &It->second;
  }

  int64_t asInt() const { return static_cast<int64_t>(Num); }
};

/// Parses \p Text; returns false (with a 1-based position in \p ErrAt) on
/// malformed input.
inline bool parseJson(const std::string &Text, JsonValue &Out,
                      size_t *ErrAt = nullptr) {
  size_t I = 0;
  auto Fail = [&](size_t At) {
    if (ErrAt)
      *ErrAt = At + 1;
    return false;
  };
  auto Skip = [&] {
    while (I < Text.size() && std::isspace(static_cast<unsigned char>(Text[I])))
      ++I;
  };

  std::function<bool(JsonValue &)> Parse = [&](JsonValue &V) -> bool {
    Skip();
    if (I >= Text.size())
      return Fail(I);
    char C = Text[I];
    if (C == '{') {
      ++I;
      V.K = JsonValue::Kind::Object;
      Skip();
      if (I < Text.size() && Text[I] == '}') {
        ++I;
        return true;
      }
      while (true) {
        Skip();
        if (I >= Text.size() || Text[I] != '"')
          return Fail(I);
        JsonValue KeyV;
        if (!Parse(KeyV))
          return false;
        Skip();
        if (I >= Text.size() || Text[I] != ':')
          return Fail(I);
        ++I;
        if (V.Obj.find(KeyV.Str) == V.Obj.end())
          V.ObjOrder.push_back(KeyV.Str);
        JsonValue &Slot = V.Obj[KeyV.Str];
        if (!Parse(Slot))
          return false;
        Skip();
        if (I < Text.size() && Text[I] == ',') {
          ++I;
          continue;
        }
        if (I < Text.size() && Text[I] == '}') {
          ++I;
          return true;
        }
        return Fail(I);
      }
    }
    if (C == '[') {
      ++I;
      V.K = JsonValue::Kind::Array;
      Skip();
      if (I < Text.size() && Text[I] == ']') {
        ++I;
        return true;
      }
      while (true) {
        V.Arr.emplace_back();
        if (!Parse(V.Arr.back()))
          return false;
        Skip();
        if (I < Text.size() && Text[I] == ',') {
          ++I;
          continue;
        }
        if (I < Text.size() && Text[I] == ']') {
          ++I;
          return true;
        }
        return Fail(I);
      }
    }
    if (C == '"') {
      ++I;
      V.K = JsonValue::Kind::String;
      while (I < Text.size() && Text[I] != '"') {
        if (Text[I] == '\\') {
          ++I;
          if (I >= Text.size())
            return Fail(I);
        }
        V.Str += Text[I++];
      }
      if (I >= Text.size())
        return Fail(I);
      ++I; // Closing quote.
      return true;
    }
    if (Text.compare(I, 4, "true") == 0) {
      V.K = JsonValue::Kind::Bool;
      V.B = true;
      I += 4;
      return true;
    }
    if (Text.compare(I, 5, "false") == 0) {
      V.K = JsonValue::Kind::Bool;
      I += 5;
      return true;
    }
    if (Text.compare(I, 4, "null") == 0) {
      I += 4;
      return true;
    }
    // Number.
    size_t Start = I;
    if (I < Text.size() && (Text[I] == '-' || Text[I] == '+'))
      ++I;
    while (I < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[I])) ||
            Text[I] == '.' || Text[I] == 'e' || Text[I] == 'E' ||
            Text[I] == '-' || Text[I] == '+'))
      ++I;
    if (I == Start)
      return Fail(I);
    V.K = JsonValue::Kind::Number;
    V.Num = std::strtod(Text.substr(Start, I - Start).c_str(), nullptr);
    return true;
  };

  if (!Parse(Out))
    return false;
  Skip();
  return I == Text.size() || Fail(I);
}

/// Re-emits a parsed value through \p W (document key order preserved
/// via ObjOrder). Lets one bench rewrite its own baseline section while
/// carrying every other bench's sections through untouched. Integral
/// numbers round-trip without a decimal point.
inline void writeJsonValue(JsonWriter &W, const JsonValue &V) {
  switch (V.K) {
  case JsonValue::Kind::Null:
    // The benches never emit null; a quoted placeholder keeps the
    // round-trip total without teaching JsonWriter raw tokens.
    W.value("null");
    return;
  case JsonValue::Kind::Bool:
    // JsonWriter has no bool shape (the benches emit bools as 0/1).
    W.value(V.B ? 1 : 0);
    return;
  case JsonValue::Kind::Number: {
    double Whole;
    if (std::modf(V.Num, &Whole) == 0.0 && V.Num >= -9.2e18 && V.Num <= 9.2e18)
      W.value(static_cast<int64_t>(V.Num));
    else
      W.value(V.Num);
    return;
  }
  case JsonValue::Kind::String:
    W.value(V.Str);
    return;
  case JsonValue::Kind::Array:
    W.beginArray();
    for (const JsonValue &E : V.Arr)
      writeJsonValue(W, E);
    W.endArray();
    return;
  case JsonValue::Kind::Object:
    W.beginObject();
    for (const std::string &Key : V.ObjOrder) {
      W.key(Key);
      writeJsonValue(W, V.Obj.at(Key));
    }
    W.endObject();
    return;
  }
}

/// Reads and parses \p Path; false when unreadable or malformed.
inline bool parseJsonFile(const std::string &Path, JsonValue &Out,
                          std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F) {
    Err = "cannot open " + Path;
    return false;
  }
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  size_t At = 0;
  if (!parseJson(Text, Out, &At)) {
    Err = Path + ": malformed JSON near byte " + std::to_string(At);
    return false;
  }
  return true;
}

} // namespace benchjson
} // namespace softbound

#endif // SOFTBOUND_BENCH_BENCHJSON_H
