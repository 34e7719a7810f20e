#include "json/value.hh"

#include "util/logging.hh"

namespace dvp::json
{

Type
JsonValue::type() const
{
    return static_cast<Type>(data.index());
}

bool
JsonValue::asBool() const
{
    invariant(isBool(), "JsonValue::asBool on non-bool");
    return std::get<bool>(data);
}

int64_t
JsonValue::asInt() const
{
    invariant(isInt(), "JsonValue::asInt on non-int");
    return std::get<int64_t>(data);
}

double
JsonValue::asDouble() const
{
    if (isInt())
        return static_cast<double>(std::get<int64_t>(data));
    invariant(isDouble(), "JsonValue::asDouble on non-number");
    return std::get<double>(data);
}

const std::string &
JsonValue::asString() const
{
    invariant(isString(), "JsonValue::asString on non-string");
    return std::get<std::string>(data);
}

const Elements &
JsonValue::asArray() const
{
    invariant(isArray(), "JsonValue::asArray on non-array");
    return std::get<Elements>(data);
}

Elements &
JsonValue::asArray()
{
    invariant(isArray(), "JsonValue::asArray on non-array");
    return std::get<Elements>(data);
}

const Members &
JsonValue::asObject() const
{
    invariant(isObject(), "JsonValue::asObject on non-object");
    return std::get<Members>(data);
}

Members &
JsonValue::asObject()
{
    invariant(isObject(), "JsonValue::asObject on non-object");
    return std::get<Members>(data);
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    auto &members = asObject();
    for (auto &[k, existing] : members) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members.emplace_back(key, std::move(v));
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : asObject())
        if (k == key)
            return &v;
    return nullptr;
}

void
JsonValue::push(JsonValue v)
{
    asArray().push_back(std::move(v));
}

size_t
JsonValue::size() const
{
    if (isArray())
        return asArray().size();
    if (isObject())
        return asObject().size();
    return 0;
}

} // namespace dvp::json
