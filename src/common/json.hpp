#pragma once
// Minimal JSON parser — the read side of the campaign checkpoint journal.
//
// src/common/report.hpp owns the write side (JsonWriter); this header adds
// just enough parsing to load journal records back: a recursive-descent
// parser into a small Value tree. Two properties matter for the resume
// determinism contract:
//
//  * Numbers keep their raw source token. A 64-bit integer such as a derived
//    seed or the UINT64_MAX conflict budget does not fit a double exactly, so
//    as_u64()/as_i64() reparse the token with integer semantics while
//    as_double() uses strtod — every journaled value round-trips bit-exactly.
//    An integer read accepts only a token that is exactly an integer of the
//    requested type: 0.5, 1e3, -1 (unsigned) or 2^64 read as the fallback,
//    and is_u64()/is_i64() tell such a token from a representable one.
//  * Object lookups are by key (find()); unknown keys are simply never looked
//    at, which is what makes journal records forward compatible.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gshe::json {

class Value {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::Null; }
    bool is_bool() const { return type_ == Type::Bool; }
    bool is_number() const { return type_ == Type::Number; }
    bool is_string() const { return type_ == Type::String; }
    bool is_array() const { return type_ == Type::Array; }
    bool is_object() const { return type_ == Type::Object; }

    /// Number tokens that are exactly a decimal integer in the type's range.
    bool is_u64() const;
    bool is_i64() const;

    /// Scalar accessors return the fallback on type mismatch, and the
    /// integer ones also for a number token that is not is_u64()/is_i64().
    bool as_bool(bool fallback = false) const;
    double as_double(double fallback = 0.0) const;
    std::uint64_t as_u64(std::uint64_t fallback = 0) const;
    std::int64_t as_i64(std::int64_t fallback = 0) const;
    /// Decoded string contents ("" unless is_string()).
    const std::string& as_string() const;

    /// Array elements (empty unless is_array()).
    const std::vector<Value>& items() const { return items_; }
    /// Object members in source order (empty unless is_object()).
    const std::vector<std::pair<std::string, Value>>& members() const {
        return members_;
    }
    /// First member with the given key; nullptr when absent (or not an
    /// object). The journal decoder treats absent as "use the default".
    const Value* find(const std::string& key) const;

private:
    friend class Parser;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::string scalar_;  ///< raw number token, or decoded string contents
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

/// Parses one JSON document; std::nullopt on any syntax error (including
/// trailing garbage). Never throws on malformed input — a half-written
/// journal line must be skippable, not fatal.
std::optional<Value> parse(std::string_view text);

}  // namespace gshe::json
