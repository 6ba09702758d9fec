#include "llm/agent_model.h"

#include <gtest/gtest.h>

namespace cortex {
namespace {

AgentTask TwoStepTask() {
  AgentTask task;
  task.id = 42;
  task.description = "find the painter and the museum";
  task.steps.push_back({"I need the painter.", "who painted the mona lisa",
                        "Leonardo da Vinci painted it."});
  task.steps.push_back({"Now the museum.", "where is the mona lisa displayed",
                        "The Louvre, Paris."});
  task.final_think = "I can answer now.";
  task.final_answer = "Leonardo da Vinci; the Louvre";
  return task;
}

TEST(AgentModel, WalksThinkActObserveLoop) {
  AgentModel model;
  AgentSession session(TwoStepTask());

  const AgentTurn t1 = model.Next(session);
  ASSERT_TRUE(t1.tool_query.has_value());
  EXPECT_EQ(*t1.tool_query, "who painted the mona lisa");
  EXPECT_FALSE(t1.answer.has_value());
  EXPECT_FALSE(session.finished());

  const AgentTurn t2 = model.Next(session, "Leonardo da Vinci painted it.");
  ASSERT_TRUE(t2.tool_query.has_value());
  EXPECT_EQ(*t2.tool_query, "where is the mona lisa displayed");

  const AgentTurn t3 = model.Next(session, "The Louvre, Paris.");
  EXPECT_FALSE(t3.tool_query.has_value());
  ASSERT_TRUE(t3.answer.has_value());
  EXPECT_EQ(*t3.answer, "Leonardo da Vinci; the Louvre");
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.observations().size(), 2u);
}

TEST(AgentModel, OutputIsWellFormedTaggedText) {
  AgentModel model;
  AgentSession session(TwoStepTask());
  const AgentTurn t1 = model.Next(session);
  const auto segs = ParseTagged(t1.text);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].kind, TagKind::kThink);
  EXPECT_EQ(segs[1].kind, TagKind::kSearch);
  const auto tool = FirstToolCall(segs);
  ASSERT_TRUE(tool.has_value());
  EXPECT_EQ(tool->content, *t1.tool_query);
}

TEST(AgentModel, ContextGrowsMonotonically) {
  AgentModel model;
  AgentSession session(TwoStepTask());
  const std::size_t c0 = session.context_tokens();
  EXPECT_GT(c0, 0u);  // task description is in context
  model.Next(session);
  const std::size_t c1 = session.context_tokens();
  EXPECT_GT(c1, c0);
  model.Next(session, "observation one");
  EXPECT_GT(session.context_tokens(), c1);
}

TEST(AgentModel, PromptTokensReflectAccumulatedContext) {
  AgentModel model;
  AgentSession session(TwoStepTask());
  const AgentTurn t1 = model.Next(session);
  const AgentTurn t2 = model.Next(session, "some retrieved info");
  EXPECT_GT(t2.prompt_tokens, t1.prompt_tokens);
  EXPECT_GT(t1.output_tokens, 0u);
}

TEST(AgentModel, ZeroStepTaskAnswersImmediately) {
  AgentTask task;
  task.id = 1;
  task.description = "trivial";
  // Move-assigned from a std::string: assigning the literal goes through
  // std::string::_M_replace, where gcc 12 -O3 reports a false
  // -Wmaybe-uninitialized.
  task.final_answer = std::string("42");
  AgentModel model;
  AgentSession session(std::move(task));
  const AgentTurn t = model.Next(session);
  EXPECT_FALSE(t.tool_query.has_value());
  ASSERT_TRUE(t.answer.has_value());
  EXPECT_TRUE(session.finished());
}

TEST(AgentModel, TurnSecondsScaleWithComputeShare) {
  AgentModel model;
  AgentSession session(TwoStepTask());
  const AgentTurn t = model.Next(session);
  EXPECT_GT(model.TurnSeconds(t, 0.5), model.TurnSeconds(t, 1.0));
}

TEST(AnswerIsCorrect, WrongObservationForcesIncorrect) {
  AgentTask task = TwoStepTask();
  task.base_correctness = 1.0;
  EXPECT_TRUE(AnswerIsCorrect(task, true));
  EXPECT_FALSE(AnswerIsCorrect(task, false));
}

TEST(AnswerIsCorrect, DeterministicPerTaskId) {
  AgentTask task = TwoStepTask();
  task.base_correctness = 0.5;
  const bool first = AnswerIsCorrect(task, true);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(AnswerIsCorrect(task, true), first);
  }
}

TEST(AnswerIsCorrect, RateTracksBaseCorrectness) {
  int correct = 0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    AgentTask task;
    task.id = static_cast<std::uint64_t>(i);
    task.base_correctness = 0.7;
    correct += AnswerIsCorrect(task, true) ? 1 : 0;
  }
  EXPECT_NEAR(correct / static_cast<double>(kN), 0.7, 0.03);
}

}  // namespace
}  // namespace cortex
